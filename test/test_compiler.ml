(* Integration tests: the full compile -> estimate -> schedule -> simulate
   flow, plus the report layer. *)

open Compass_core
open Compass_arch

let quick = Ga.quick_params

let compile ?(batch = 16) ?(chip = Config.chip_s) name scheme =
  Compiler.compile ~ga_params:quick ~model:(Compass_nn.Models.by_name name) ~chip ~batch
    scheme

let test_scheme_parsing () =
  Alcotest.(check bool) "compass" true (Compiler.scheme_of_string "GA" = Compiler.Compass);
  Alcotest.(check bool) "greedy" true
    (Compiler.scheme_of_string "Greedy" = Compiler.Greedy);
  Alcotest.(check bool) "unknown" true
    (try
       ignore (Compiler.scheme_of_string "magic");
       false
     with Invalid_argument _ -> true)

let test_compile_all_workloads () =
  (* The paper's claim: COMPASS maps all three models on every chip. *)
  List.iter
    (fun name ->
      List.iter
        (fun (_, chip) ->
          let plan = compile ~chip name Compiler.Greedy in
          Alcotest.(check bool)
            (Compiler.label plan ^ " has partitions")
            true
            (Partition.partition_count plan.Compiler.group >= 1))
        Config.presets)
    [ "vgg16"; "resnet18"; "squeezenet" ]

let test_prior_compiler_support () =
  (* Table II: only SqueezeNet fits the resource-constrained chips. *)
  let vgg = Compass_nn.Models.vgg16 () in
  let resnet = Compass_nn.Models.resnet18 () in
  let squeeze = Compass_nn.Models.squeezenet () in
  Alcotest.(check bool) "vgg16 prev X" false
    (Compiler.supported_by_prior_compilers vgg Config.chip_s);
  Alcotest.(check bool) "resnet18 prev X" false
    (Compiler.supported_by_prior_compilers resnet Config.chip_s);
  Alcotest.(check bool) "squeezenet prev V" true
    (Compiler.supported_by_prior_compilers squeeze Config.chip_s);
  (* ResNet18 (5.57 MB) exceeds even chip L (4.5 MB). *)
  Alcotest.(check bool) "resnet18 prev X on L" false
    (Compiler.supported_by_prior_compilers resnet Config.chip_l)

let test_label () =
  let plan = compile ~batch:4 "resnet18" Compiler.Greedy in
  Alcotest.(check string) "paper naming" "resnet18-S-4" (Compiler.label plan)

let test_ga_present_only_for_compass () =
  let p1 = compile "squeezenet" Compiler.Compass in
  let p2 = compile "squeezenet" Compiler.Greedy in
  Alcotest.(check bool) "compass has ga" true (p1.Compiler.ga <> None);
  Alcotest.(check bool) "greedy has none" true (p2.Compiler.ga = None)

let test_compass_beats_baselines_resnet () =
  let rows =
    Report.compare_schemes ~ga_params:quick
      ~model:(Compass_nn.Models.resnet18 ())
      ~chip:Config.chip_s ~batch:16 ()
  in
  Alcotest.(check int) "three rows" 3 (List.length rows);
  Alcotest.(check bool) "beats greedy" true (Report.speedup rows ~over:"greedy" >= 1.0);
  Alcotest.(check bool) "beats layerwise" true
    (Report.speedup rows ~over:"layerwise" >= 1.0)

let test_measure_pipeline () =
  let plan = compile ~batch:4 "lenet5" Compiler.Compass in
  let m = Compiler.measure plan in
  Alcotest.(check bool) "sim ran" true (m.Compiler.sim.Compass_isa.Sim.makespan_s > 0.);
  Alcotest.(check bool) "dram replayed" true
    (m.Compiler.dram.Compass_dram.Controller.bytes > 0.);
  Alcotest.(check bool) "instructions emitted" true
    (m.Compiler.schedule.Scheduler.instruction_count > 0)

let test_report_tables () =
  let rows =
    Report.compare_schemes ~ga_params:quick
      ~model:(Compass_nn.Models.squeezenet ())
      ~chip:Config.chip_s ~batch:4 ()
  in
  Alcotest.(check int) "table rows" 3
    (Helpers.rows (Report.rows_table rows));
  let support =
    Report.support_table (Compass_nn.Models.evaluation_models ()) Config.chip_s
  in
  Alcotest.(check int) "support rows" 3 (Helpers.rows support)

let test_invalid_batch_rejected () =
  Alcotest.(check bool) "batch 0" true
    (try
       ignore (compile ~batch:0 "lenet5" Compiler.Greedy);
       false
     with Invalid_argument _ -> true)

let test_objective_threaded () =
  let plan =
    Compiler.compile ~objective:Fitness.Edp ~ga_params:quick
      ~model:(Compass_nn.Models.resnet18 ())
      ~chip:Config.chip_s ~batch:8 Compiler.Compass
  in
  Alcotest.(check bool) "objective recorded" true (plan.Compiler.objective = Fitness.Edp)

let test_speedup_missing_scheme () =
  let rows =
    [
      {
        Report.config = "x";
        scheme = "compass";
        partitions = 1;
        latency_s = 1.;
        throughput_per_s = 1.;
        energy_per_sample_j = 1.;
        edp_j_s = 1.;
      };
    ]
  in
  Alcotest.(check bool) "missing baseline raises" true
    (try
       ignore (Report.speedup rows ~over:"greedy");
       false
     with Not_found -> true)

let test_csv_export () =
  let rows =
    Report.compare_schemes ~ga_params:quick
      ~model:(Compass_nn.Models.lenet5 ())
      ~chip:Config.chip_s ~batch:2 ()
  in
  let path = Filename.temp_file "compass" ".csv" in
  Report.write_csv path rows;
  let csv = In_channel.with_open_bin path In_channel.input_all in
  Sys.remove path;
  let lines = String.split_on_char '\n' (String.trim csv) in
  Alcotest.(check int) "header + 3 rows" 4 (List.length lines);
  Alcotest.(check bool) "header fields" true
    (String.length (List.hd lines) > 0
    && String.split_on_char ',' (List.hd lines) |> List.length = 7);
  Alcotest.(check bool) "newline terminated" true (String.ends_with ~suffix:"\n" csv)

let test_extended_zoo_compiles () =
  (* The non-evaluation networks also go end to end (greedy for speed). *)
  List.iter
    (fun name ->
      let plan = compile ~batch:4 name Compiler.Greedy in
      Alcotest.(check bool) (name ^ " compiles") true
        (plan.Compiler.perf.Estimator.throughput_per_s > 0.))
    [ "alexnet"; "vgg11"; "resnet34"; "mobilenet_v1" ]

let test_on_chip_mode () =
  let squeeze = Compass_nn.Models.squeezenet () in
  let vgg = Compass_nn.Models.vgg16 () in
  (match Compiler.compile_on_chip ~model:squeeze ~chip:Config.chip_s ~batch:16 with
  | Ok r ->
    Alcotest.(check int) "single partition" 1
      (Partition.partition_count r.Compiler.on_chip_group);
    Alcotest.(check bool) "positive throughput" true
      (r.Compiler.on_chip_perf.Estimator.throughput_per_s > 0.);
    List.iter
      (fun sp -> Alcotest.(check (float 0.)) "pinned: no writes" 0. sp.Estimator.write_s)
      r.Compiler.on_chip_perf.Estimator.spans
  | Error e -> Alcotest.fail ("squeezenet should fit chip S: " ^ e));
  Alcotest.(check bool) "vgg16 unmappable" true
    (match Compiler.compile_on_chip ~model:vgg ~chip:Config.chip_s ~batch:16 with
    | Error _ -> true
    | Ok _ -> false)

let test_on_chip_agrees_with_support_predicate () =
  List.iter
    (fun name ->
      List.iter
        (fun (_, chip) ->
          let model = Compass_nn.Models.by_name name in
          let predicted = Compiler.supported_by_prior_compilers model chip in
          let actual =
            match Compiler.compile_on_chip ~model ~chip ~batch:4 with
            | Ok _ -> true
            | Error _ -> false
          in
          (* The byte-level predicate can be optimistic about fragmentation,
             never pessimistic. *)
          Alcotest.(check bool)
            (Printf.sprintf "%s-%s consistent" name chip.Config.label)
            true
            ((not actual) || predicted))
        Config.presets)
    [ "vgg16"; "resnet18"; "squeezenet"; "lenet5" ]

let test_tiny_models_end_to_end () =
  List.iter
    (fun name ->
      let plan = compile ~batch:2 name Compiler.Compass in
      let m = Compiler.measure plan in
      Alcotest.(check bool) (name ^ " end-to-end") true
        (m.Compiler.sim.Compass_isa.Sim.makespan_s > 0.))
    [ "tiny_mlp"; "tiny_resnet"; "lenet5" ]

let test_dram_replay_golden () =
  (* The modeled DRAM result of a real plan's trace, pinned: a replay
     change that moves any number fails here. *)
  let plan =
    Compiler.compile ~model:(Compass_nn.Models.resnet18 ()) ~chip:Config.chip_s
      ~batch:16 Compiler.Optimal
  in
  let d = (Compiler.measure plan).Compiler.dram in
  let open Compass_dram.Controller in
  Alcotest.(check int) "cycles" 1003076 d.cycles;
  Alcotest.(check int) "reads" 220115 d.reads;
  Alcotest.(check int) "writes" 250 d.writes;
  Alcotest.(check int) "row hits" 216889 d.row_hits;
  Alcotest.(check int) "row misses" 3476 d.row_misses;
  Alcotest.(check int) "activates" 3476 d.activates;
  Alcotest.(check int) "refreshes" 321 d.refreshes;
  Alcotest.(check int) "bus stall cycles" 4036 d.bus_stall_cycles;
  Alcotest.(check int64) "energy bits"
    (Int64.bits_of_float 0x1.176f6a3d82e4cp-9)
    (Int64.bits_of_float d.energy_j)

let () =
  Alcotest.run "compiler"
    [
      ( "compile",
        [
          Alcotest.test_case "scheme parsing" `Quick test_scheme_parsing;
          Alcotest.test_case "all workloads compile" `Slow test_compile_all_workloads;
          Alcotest.test_case "prior compiler support (Table II)" `Quick
            test_prior_compiler_support;
          Alcotest.test_case "label" `Quick test_label;
          Alcotest.test_case "ga presence" `Quick test_ga_present_only_for_compass;
          Alcotest.test_case "invalid batch" `Quick test_invalid_batch_rejected;
          Alcotest.test_case "objective threaded" `Quick test_objective_threaded;
        ] );
      ( "integration",
        [
          Alcotest.test_case "compass beats baselines" `Slow
            test_compass_beats_baselines_resnet;
          Alcotest.test_case "measure pipeline" `Quick test_measure_pipeline;
          Alcotest.test_case "DRAM replay golden (resnet18-S-16 DP)" `Quick
            test_dram_replay_golden;
          Alcotest.test_case "report tables" `Quick test_report_tables;
          Alcotest.test_case "speedup missing scheme" `Quick test_speedup_missing_scheme;
          Alcotest.test_case "tiny models end-to-end" `Quick test_tiny_models_end_to_end;
          Alcotest.test_case "csv export" `Quick test_csv_export;
          Alcotest.test_case "extended zoo compiles" `Slow test_extended_zoo_compiles;
          Alcotest.test_case "on-chip mode" `Quick test_on_chip_mode;
          Alcotest.test_case "on-chip vs predicate" `Quick
            test_on_chip_agrees_with_support_predicate;
        ] );
    ]
