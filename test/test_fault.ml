(* Tests for the fault subsystem: fault specs, degraded-capacity mapping
   and validity, fault-aware compilation, plan repair, endurance
   accounting and mid-run fault injection in the chip simulator. *)

open Compass_core
open Compass_arch

let mpc chip = chip.Config.core.Config.macros_per_core

let quick = { Ga.quick_params with Ga.generations = 6; Ga.population = 12 }

(* Fault specs *)

let test_spec_parse_roundtrip () =
  let cases =
    [
      "none";
      "dead:0,3";
      "degraded:1=4,5=2";
      "dead:0;degraded:1=4";
      "dead:2;endurance:1e+06";
      "transient:2";
      "flip:3";
      "drift:0.01";
      "dead:1;transient:1;flip:2;drift:0.5";
      "drift:1e-06";  (* float_token keeps tiny rates exact *)
    ]
  in
  List.iter
    (fun spec ->
      let f = Fault.of_string spec ~seed:7 ~cores:16 ~macros_per_core:9 in
      let back = Fault.of_string (Fault.to_string f) ~seed:99 ~cores:16 ~macros_per_core:9 in
      Alcotest.(check string)
        (Printf.sprintf "roundtrip %s" spec)
        (Fault.to_string f) (Fault.to_string back))
    cases

let test_spec_errors () =
  (* Syntax errors are located at the offending token's column. *)
  List.iter
    (fun (spec, col, mentions) ->
      Located_check.expect_located ~line:1 ~col ~mentions (fun () ->
          Fault.of_string spec ~seed:0 ~cores:16 ~macros_per_core:9))
    [
      ("bogus", 1, "has no ':'");
      ("dead", 1, "has no ':'");
      ("dead:x", 6, "bad core \"x\"");
      ("degraded:1", 10, "expected core=value");
      ("degraded:1=0", 10, "degraded capacity must be >= 1");
      ("random:sideways=2", 8, "unknown random kind \"sideways\"");
      ("endurance:-1", 11, "bad endurance");
      ("transient:-1", 11, "bad transient count");
      ("transient:x", 11, "bad transient count");
      ("flip:-2", 6, "bad flip count");
      ("drift:0", 7, "bad drift");  (* rate must be in (0, 1] *)
      ("drift:1.5", 7, "bad drift");
      ("drift:banana", 7, "bad drift");
      ("dead:1; zap:2", 9, "unknown clause \"zap\"");
    ];
  (* Scenarios that parse but cannot be realized on the chip stay
     Invalid_argument. *)
  List.iter
    (fun spec ->
      Alcotest.(check bool) (Printf.sprintf "%S rejected" spec) true
        (try
           ignore (Fault.of_string spec ~seed:0 ~cores:16 ~macros_per_core:9);
           false
         with Invalid_argument _ -> true))
    [
      "degraded:1=9";  (* = nominal capacity on chip S cores *)
      "dead:99";
      "dead:0;degraded:0=2";  (* core listed twice *)
      "random:dead=99";  (* more faults than cores *)
    ]

let test_random_scenarios_deterministic () =
  let realize seed = Fault.of_string "random:dead=2,degraded=3" ~seed ~cores:16 ~macros_per_core:9 in
  Alcotest.(check string) "same seed, same scenario"
    (Fault.to_string (realize 42))
    (Fault.to_string (realize 42));
  let count p =
    let f = realize 42 in
    List.length (List.filter p (List.init (Fault.cores f) (Fault.status f)))
  in
  Alcotest.(check int) "dead count" 2 (count (( = ) Fault.Dead));
  Alcotest.(check int) "degraded count" 3
    (count (function Fault.Degraded _ -> true | _ -> false));
  Alcotest.(check bool) "different seeds differ" true
    (List.exists
       (fun s -> Fault.to_string (realize s) <> Fault.to_string (realize 42))
       [ 1; 2; 3; 4; 5 ])

let test_effective_capacity () =
  let f = Fault.of_string "dead:0;degraded:1=4" ~seed:0 ~cores:16 ~macros_per_core:9 in
  let capacities = Fault.capacities f ~macros_per_core:9 in
  Alcotest.(check int) "dead" 0 capacities.(0);
  Alcotest.(check int) "degraded" 4 capacities.(1);
  Alcotest.(check int) "healthy" 9 capacities.(2);
  Alcotest.(check int) "total" (4 + (14 * 9)) (Fault.total_capacity f ~macros_per_core:9);
  Alcotest.(check bool) "not trivial" false (Fault.is_trivial f);
  Alcotest.(check bool) "healthy chip trivial" true (Fault.is_trivial (Fault.healthy ~cores:16))

(* Degraded-capacity mapping *)

let test_pack_avoids_dead_cores () =
  let units = Unit_gen.generate (Compass_nn.Models.by_name "resnet18") Config.chip_m in
  let faults = Fault.of_string "dead:0,5;degraded:2=3" ~seed:0 ~cores:16 ~macros_per_core:16 in
  let v = Validity.build ~faults units in
  let stop = Validity.max_end v 0 in
  match Mapping.pack ~faults units ~start_:0 ~stop ~replication:(fun _ -> 1) with
  | Error e -> Alcotest.fail e
  | Ok m ->
    Alcotest.(check int) "dead core 0 empty" 0 m.Mapping.tiles_used.(0);
    Alcotest.(check int) "dead core 5 empty" 0 m.Mapping.tiles_used.(5);
    Alcotest.(check bool) "degraded core within 3" true (m.Mapping.tiles_used.(2) <= 3);
    Array.iteri
      (fun c used ->
        Alcotest.(check bool)
          (Printf.sprintf "core %d within effective capacity" c)
          true
          (used <= m.Mapping.capacities.(c)))
      m.Mapping.tiles_used

let test_core_count_mismatch_rejected () =
  let units = Unit_gen.generate (Compass_nn.Models.by_name "lenet5") Config.chip_s in
  let faults = Fault.healthy ~cores:4 in
  Alcotest.(check bool) "mismatched scenario rejected" true
    (try
       ignore (Mapping.pack ~faults units ~start_:0 ~stop:1 ~replication:(fun _ -> 1));
       false
     with Invalid_argument _ -> true)

let test_validity_shrinks_under_faults () =
  let units = Unit_gen.generate (Compass_nn.Models.by_name "resnet18") Config.chip_m in
  let v0 = Validity.build units in
  let faults = Fault.of_string "random:dead=4" ~seed:3 ~cores:16 ~macros_per_core:16 in
  let vf = Validity.build ~faults units in
  let m = Validity.size v0 in
  for a = 0 to m - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "max_end(%d) monotone under faults" a)
      true
      (Validity.max_end vf a <= Validity.max_end v0 a && Validity.max_end vf a > a)
  done;
  Alcotest.(check bool) "density shrinks" true (Validity.density vf <= Validity.density v0)

let test_validity_rejects_impossible () =
  (* Degrade every core below the largest unit: the model cannot run. *)
  let units = Unit_gen.generate (Compass_nn.Models.by_name "resnet18") Config.chip_s in
  let biggest =
    Array.fold_left (fun acc u -> max acc u.Unit_gen.tiles) 0 units.Unit_gen.units
  in
  if biggest > 1 then begin
    let statuses = Array.make 16 (Fault.Degraded (biggest - 1)) in
    let faults = Fault.make statuses in
    Alcotest.(check bool) "build raises" true
      (try
         ignore (Validity.build ~faults units);
         false
       with Invalid_argument _ -> true)
  end

let test_render_empty_safe () =
  (* render must not divide by zero on degenerate maps (m = 0 guard). *)
  let units = Unit_gen.generate (Compass_nn.Models.by_name "lenet5") Config.chip_s in
  let v = Validity.build units in
  let s = Validity.render ~cells:1 v in
  Alcotest.(check bool) "non-empty rendering" true (String.length s > 0)

(* No-fault refinement: behavior must be bit-identical to the pre-fault
   compiler. *)

let test_nofault_bit_identical () =
  let model = Compass_nn.Models.by_name "squeezenet" in
  let plain =
    Compiler.compile ~ga_params:quick ~model ~chip:Config.chip_s ~batch:8 Compiler.Compass
  in
  let trivial = Fault.healthy ~cores:16 in
  let faulted =
    Compiler.compile ~ga_params:quick ~faults:trivial ~model ~chip:Config.chip_s ~batch:8
      Compiler.Compass
  in
  Alcotest.(check bool) "same group" true
    (Partition.equal plain.Compiler.group faulted.Compiler.group);
  Alcotest.(check (float 0.)) "same latency"
    plain.Compiler.perf.Estimator.batch_latency_s
    faulted.Compiler.perf.Estimator.batch_latency_s;
  Alcotest.(check (float 0.)) "same energy" plain.Compiler.perf.Estimator.energy_j
    faulted.Compiler.perf.Estimator.energy_j;
  match (plain.Compiler.ga, faulted.Compiler.ga) with
  | Some a, Some b ->
    Alcotest.(check int) "same evaluations" a.Ga.evaluations b.Ga.evaluations;
    Alcotest.(check int) "same cache" a.Ga.cache_spans b.Ga.cache_spans
  | _ -> Alcotest.fail "expected GA results"

(* QCheck property (a): plans compiled under random fault scenarios never
   place units on dead cores and respect degraded capacities. *)

let scenario_gen =
  QCheck.make
    ~print:(fun (seed, dead, degraded) ->
      Printf.sprintf "seed=%d dead=%d degraded=%d" seed dead degraded)
    QCheck.Gen.(triple (int_bound 10000) (int_bound 3) (int_bound 2))

let prop_compile_respects_faults =
  QCheck.Test.make ~name:"fault-aware plans respect effective capacities" ~count:15
    scenario_gen (fun (seed, dead, degraded) ->
      let chip = Config.chip_m in
      let spec = Printf.sprintf "random:dead=%d,degraded=%d" dead degraded in
      let faults = Fault.of_string spec ~seed ~cores:chip.Config.cores ~macros_per_core:(mpc chip) in
      let model = Compass_nn.Models.by_name "resnet18" in
      let plan = Compiler.compile ~faults ~model ~chip ~batch:8 Compiler.Greedy in
      let units = plan.Compiler.units in
      let caps = Fault.capacities faults ~macros_per_core:(mpc chip) in
      List.for_all
        (fun (s : Partition.span) ->
          match
            Mapping.pack ~faults units ~start_:s.Partition.start_ ~stop:s.Partition.stop
              ~replication:(fun _ -> 1)
          with
          | Error _ -> false
          | Ok m ->
            Array.for_all2 ( >= ) caps m.Mapping.tiles_used
            && Array.for_all
                 (fun c -> c >= 0)
                 m.Mapping.tiles_used)
        (Partition.spans plan.Compiler.group))

(* QCheck property (b): repair output is Validity-valid, and a forced
   recompile is bit-identical to a fresh compile on the faulted chip. *)

let prop_repair_valid =
  QCheck.Test.make ~name:"repair yields validity-valid plans" ~count:10
    scenario_gen (fun (seed, dead, degraded) ->
      let chip = Config.chip_m in
      let spec = Printf.sprintf "random:dead=%d,degraded=%d" dead degraded in
      let faults = Fault.of_string spec ~seed ~cores:chip.Config.cores ~macros_per_core:(mpc chip) in
      let model = Compass_nn.Models.by_name "resnet18" in
      let plan = Compiler.compile ~model ~chip ~batch:8 Compiler.Greedy in
      match Compiler.repair plan ~faults with
      | Error _ -> QCheck.Test.fail_report "repair failed on a feasible scenario"
      | Ok r ->
        let v = Validity.build ~faults plan.Compiler.units in
        Validity.group_valid v r.Compiler.plan.Compiler.group
        && r.Compiler.plan.Compiler.faults <> None
        && r.Compiler.degradation >= 0.)

let test_repair_forced_recompile_equals_fresh () =
  let chip = Config.chip_m in
  let model = Compass_nn.Models.by_name "resnet18" in
  (* Four dead cores slow the local re-split 1.648x, past the 1.5x
     recompile threshold. *)
  let faults = Fault.of_string "dead:0,1,2,3" ~seed:0 ~cores:16 ~macros_per_core:16 in
  let plan = Compiler.compile ~ga_params:quick ~model ~chip ~batch:8 Compiler.Compass in
  match Compiler.repair ~ga_params:quick plan ~faults with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "strategy is recompile" true (r.Compiler.strategy = Compiler.Recompiled);
    let fresh =
      Compiler.compile ~ga_params:quick ~faults ~model ~chip ~batch:8 Compiler.Compass
    in
    Alcotest.(check bool) "same group as fresh compile" true
      (Partition.equal fresh.Compiler.group r.Compiler.plan.Compiler.group);
    Alcotest.(check (float 0.)) "same latency"
      fresh.Compiler.perf.Estimator.batch_latency_s
      r.Compiler.plan.Compiler.perf.Estimator.batch_latency_s

let test_repair_unchanged_when_feasible () =
  (* A scenario mild enough that every span still fits keeps the
     partitioning and only re-maps. *)
  let chip = Config.chip_l in
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Greedy in
  let faults = Fault.of_string "dead:15" ~seed:0 ~cores:16 ~macros_per_core:36 in
  match Compiler.repair plan ~faults with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "unchanged" true (r.Compiler.strategy = Compiler.Unchanged);
    Alcotest.(check bool) "group kept" true
      (Partition.equal plan.Compiler.group r.Compiler.plan.Compiler.group)

let test_repair_infeasible_is_error () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "resnet18" in
  let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Greedy in
  let statuses = Array.make 16 Fault.Dead in
  statuses.(0) <- Fault.Degraded 1;
  let faults = Fault.make statuses in
  Alcotest.(check bool) "catastrophic scenario is Error" true
    (match Compiler.repair plan ~faults with Error _ -> true | Ok _ -> false)

(* Endurance accounting *)

let test_endurance_accounting () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "resnet18" in
  let faults = Fault.of_string "endurance:1e6" ~seed:0 ~cores:16 ~macros_per_core:9 in
  let plan = Compiler.compile ~faults ~model ~chip ~batch:16 Compiler.Greedy in
  let e = plan.Compiler.perf.Estimator.endurance in
  Alcotest.(check bool) "writes recorded" true (e.Estimator.macro_writes_per_batch > 0);
  Alcotest.(check bool) "per-inference positive" true (e.Estimator.writes_per_inference > 0.);
  Alcotest.(check bool) "worst macro bounded by total" true
    (e.Estimator.max_writes_per_macro_per_inference <= e.Estimator.writes_per_inference);
  (match e.Estimator.projected_lifetime_inferences with
  | Some n ->
    Alcotest.(check bool) "lifetime consistent" true
      (abs_float (n -. (1e6 /. e.Estimator.max_writes_per_macro_per_inference)) < 1e-6 *. n)
  | None -> Alcotest.fail "expected a lifetime projection");
  (* Without a budget there is no projection. *)
  let plain = Compiler.compile ~model ~chip ~batch:16 Compiler.Greedy in
  Alcotest.(check bool) "no budget, no projection" true
    (plain.Compiler.perf.Estimator.endurance.Estimator.projected_lifetime_inferences = None)

let test_wear_objective () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "squeezenet" in
  Alcotest.(check bool) "wear parses" true (Fitness.objective_of_string "wear" = Fitness.Wear);
  Alcotest.(check bool) "endurance alias" true
    (Fitness.objective_of_string "endurance" = Fitness.Wear);
  let lat = Compiler.compile ~ga_params:quick ~model ~chip ~batch:16 Compiler.Compass in
  let wear =
    Compiler.compile ~ga_params:quick ~objective:Fitness.Wear ~model ~chip ~batch:16
      Compiler.Compass
  in
  (* The wear objective never prefers a plan with more worst-macro wear
     AND more latency than the latency objective's pick (it optimizes the
     sum of both terms). *)
  let cost (p : Compiler.t) = Fitness.group_fitness Fitness.Wear p.Compiler.perf in
  Alcotest.(check bool) "wear plan no worse on wear fitness" true
    (cost wear <= cost lat +. 1e-12)

let test_endurance_table_renders () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "lenet5" in
  let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Greedy in
  let t = Report.endurance_table ~endurance_cycles:1e6 [ plan ] in
  Alcotest.(check bool) "table renders" true
    (String.length (Compass_util.Table.render t) > 0)

(* Scheduler + simulator under faults *)

let test_schedule_avoids_dead_cores () =
  let chip = Config.chip_m in
  let model = Compass_nn.Models.by_name "resnet18" in
  let faults = Fault.of_string "dead:0,7" ~seed:0 ~cores:16 ~macros_per_core:16 in
  let plan = Compiler.compile ~faults ~model ~chip ~batch:4 Compiler.Greedy in
  let m = Compiler.measure plan in
  List.iter
    (fun p ->
      if List.mem p.Compass_isa.Program.core_id [ 0; 7 ] then
        List.iter
          (fun instr ->
            match instr with
            | Compass_isa.Instr.Sync _ -> ()
            | other ->
              Alcotest.failf "dead core %d got %s" p.Compass_isa.Program.core_id
                (match other with
                | Compass_isa.Instr.Weight_write _ -> "weight_write"
                | Compass_isa.Instr.Load _ -> "load"
                | Compass_isa.Instr.Store _ -> "store"
                | Compass_isa.Instr.Mvm _ -> "mvm"
                | Compass_isa.Instr.Vfu _ -> "vfu"
                | Compass_isa.Instr.Send _ -> "send"
                | Compass_isa.Instr.Recv _ -> "recv"
                | Compass_isa.Instr.Check _ -> "check"
                | Compass_isa.Instr.Sync _ -> assert false))
          p.Compass_isa.Program.instrs)
    m.Compiler.schedule.Scheduler.programs;
  Alcotest.(check bool) "simulation completes" true
    (m.Compiler.sim.Compass_isa.Sim.makespan_s > 0.)

let test_sim_fault_injection_no_deadlock () =
  let chip = Config.chip_s in
  let model = Compass_nn.Models.by_name "resnet18" in
  let plan = Compiler.compile ~model ~chip ~batch:8 Compiler.Greedy in
  let sched = Compiler.schedule plan in
  let healthy = Compass_isa.Sim.run chip sched.Scheduler.programs in
  let faulted =
    Compass_isa.Sim.run
      ~fault_events:
        [
          Compass_isa.Sim.fail_stop ~at_s:(healthy.Compass_isa.Sim.makespan_s /. 4.)
            ~victim:1;
          Compass_isa.Sim.fail_stop ~at_s:0. ~victim:3;
        ]
      chip sched.Scheduler.programs
  in
  Alcotest.(check (list Alcotest.int)) "both victims die" [ 1; 3 ]
    faulted.Compass_isa.Sim.dead_cores;
  Alcotest.(check bool) "work dropped" true
    (faulted.Compass_isa.Sim.dropped_instructions > 0);
  Alcotest.(check bool) "drains no slower than healthy run" true
    (faulted.Compass_isa.Sim.makespan_s <= healthy.Compass_isa.Sim.makespan_s +. 1e-9);
  Alcotest.(check int) "no faults, no drops" 0 healthy.Compass_isa.Sim.dropped_instructions

let test_measure_with_faults () =
  let chip = Config.chip_m in
  let model = Compass_nn.Models.by_name "resnet18" in
  let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Greedy in
  let faults = Fault.of_string "dead:2,11" ~seed:0 ~cores:16 ~macros_per_core:16 in
  match Compiler.measure_with_faults plan ~at_s:1e-4 ~faults with
  | Error e -> Alcotest.fail e
  | Ok run ->
    Alcotest.(check (list Alcotest.int)) "victims fail-stopped" [ 2; 11 ]
      run.Compiler.faulted_sim.Compass_isa.Sim.dead_cores;
    Alcotest.(check bool) "recovery accounted" true
      (run.Compiler.recovery_latency_s
      >= run.Compiler.repaired.Compiler.sim.Compass_isa.Sim.makespan_s);
    Alcotest.(check bool) "repaired plan carries faults" true
      (run.Compiler.repair.Compiler.plan.Compiler.faults <> None)

(* Plan text roundtrip with faults *)

let test_plan_text_faults_roundtrip () =
  let chip = Config.chip_m in
  let model = Compass_nn.Models.by_name "resnet18" in
  let faults = Fault.of_string "dead:4;degraded:6=5" ~seed:0 ~cores:16 ~macros_per_core:16 in
  let plan = Compiler.compile ~faults ~model ~chip ~batch:8 Compiler.Greedy in
  let reloaded = Plan_text.of_string (Plan_text.to_string plan) in
  Alcotest.(check bool) "group survives" true
    (Partition.equal plan.Compiler.group reloaded.Compiler.group);
  (match reloaded.Compiler.faults with
  | Some f ->
    Alcotest.(check string) "scenario survives" (Fault.to_string faults) (Fault.to_string f)
  | None -> Alcotest.fail "faults dropped by roundtrip");
  Alcotest.(check (float 0.)) "same latency"
    plan.Compiler.perf.Estimator.batch_latency_s
    reloaded.Compiler.perf.Estimator.batch_latency_s

let () =
  Alcotest.run "fault"
    [
      ( "spec",
        [
          Alcotest.test_case "parse roundtrip" `Quick test_spec_parse_roundtrip;
          Alcotest.test_case "errors" `Quick test_spec_errors;
          Alcotest.test_case "random deterministic" `Quick test_random_scenarios_deterministic;
          Alcotest.test_case "effective capacity" `Quick test_effective_capacity;
        ] );
      ( "mapping",
        [
          Alcotest.test_case "pack avoids dead cores" `Quick test_pack_avoids_dead_cores;
          Alcotest.test_case "core count mismatch" `Quick test_core_count_mismatch_rejected;
          Alcotest.test_case "validity shrinks" `Quick test_validity_shrinks_under_faults;
          Alcotest.test_case "impossible scenario rejected" `Quick test_validity_rejects_impossible;
          Alcotest.test_case "render degenerate maps" `Quick test_render_empty_safe;
        ] );
      ( "compile",
        [
          Alcotest.test_case "no-fault path bit-identical" `Slow test_nofault_bit_identical;
          QCheck_alcotest.to_alcotest prop_compile_respects_faults;
        ] );
      ( "repair",
        [
          QCheck_alcotest.to_alcotest prop_repair_valid;
          Alcotest.test_case "forced recompile = fresh compile" `Slow
            test_repair_forced_recompile_equals_fresh;
          Alcotest.test_case "mild faults keep partitioning" `Quick
            test_repair_unchanged_when_feasible;
          Alcotest.test_case "catastrophic faults error" `Quick test_repair_infeasible_is_error;
        ] );
      ( "endurance",
        [
          Alcotest.test_case "accounting" `Quick test_endurance_accounting;
          Alcotest.test_case "wear objective" `Slow test_wear_objective;
          Alcotest.test_case "report table" `Quick test_endurance_table_renders;
        ] );
      ( "execution",
        [
          Alcotest.test_case "schedule avoids dead cores" `Quick test_schedule_avoids_dead_cores;
          Alcotest.test_case "sim fault injection" `Quick test_sim_fault_injection_no_deadlock;
          Alcotest.test_case "measure with faults" `Quick test_measure_with_faults;
        ] );
      ( "plan-text",
        [
          Alcotest.test_case "faults roundtrip" `Quick test_plan_text_faults_roundtrip;
        ] );
    ]
