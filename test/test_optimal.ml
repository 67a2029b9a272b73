(* Tests for the exact DP partitioner: brute-force agreement on small
   nets, dominance over the heuristic schemes, the GA warm start, and the
   bit-identity golden line protecting both (the unseeded GA must not
   notice any of this machinery). *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

(* Every valid partition group, by recursion over the validity map.  Only
   usable on tiny nets (lenet5-S has a handful of groups). *)
let all_valid_groups validity =
  let m = Validity.size validity in
  let rec walk pos =
    if pos = m then [ [] ]
    else
      List.concat_map
        (fun stop ->
          List.map
            (fun rest -> { Partition.start_ = pos; Partition.stop = stop } :: rest)
            (walk stop))
        (List.init (Validity.max_end validity pos - pos) (fun k -> pos + 1 + k))
  in
  List.map Partition.of_spans (walk 0)

let brute_force_min ctx validity ~batch objective =
  List.fold_left
    (fun acc g ->
      min acc (Optimal.objective_value objective (Estimator.evaluate ctx ~batch g)))
    infinity (all_valid_groups validity)

let test_brute_force_agreement () =
  List.iter
    (fun model_name ->
      let _, v, ctx = setup model_name Config.chip_s in
      List.iter
        (fun objective ->
          let name =
            Printf.sprintf "%s %s" model_name (Fitness.objective_to_string objective)
          in
          let bf = brute_force_min ctx v ~batch:8 objective in
          let dp = Optimal.optimize ~objective ctx v ~batch:8 in
          match objective with
          | Fitness.Latency | Fitness.Wear ->
            (* The DP accumulates in the estimator's exact association, so
               the optimum matches brute force bit-for-bit. *)
            Alcotest.(check (float 0.)) name bf dp.Optimal.value;
            Alcotest.(check (float 0.)) (name ^ " bound") bf dp.Optimal.lower_bound;
            Alcotest.(check bool) (name ^ " exact") true dp.Optimal.exact
          | Fitness.Energy ->
            (* Edge costs re-associate the component sums; exact up to
               float rounding. *)
            Alcotest.(check bool) name true
              (Float.abs (dp.Optimal.value -. bf) <= 1e-12 *. bf)
          | Fitness.Edp ->
            (* Not separable: the bound must be below, the incumbent at or
               above, every group's EDP. *)
            Alcotest.(check bool) (name ^ " bound below min") true
              (dp.Optimal.lower_bound <= bf *. (1. +. 1e-12));
            Alcotest.(check bool) (name ^ " incumbent achievable") true
              (dp.Optimal.value >= bf *. (1. -. 1e-12)))
        [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])
    [ "lenet5"; "tiny_mlp"; "tiny_resnet" ]

let test_dp_group_is_valid () =
  List.iter
    (fun (model_name, chip) ->
      let units, v, ctx = setup model_name chip in
      let dp = Optimal.optimize ctx v ~batch:16 in
      Alcotest.(check int) "covers" (Unit_gen.unit_count units)
        (Partition.total_units dp.Optimal.group);
      Alcotest.(check bool) "valid" true (Validity.group_valid v dp.Optimal.group);
      Alcotest.(check (float 0.)) "value is the group's latency"
        dp.Optimal.perf.Estimator.batch_latency_s dp.Optimal.value)
    [ ("resnet18", Config.chip_s); ("squeezenet", Config.chip_s); ("vgg16", Config.chip_m) ]

let test_dp_dominates_heuristics () =
  (* The certified optimum must be at or below every other scheme on the
     true batch latency — GA included. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let dp = Optimal.optimize ctx v ~batch:16 in
  let lat g = (Estimator.evaluate ctx ~batch:16 g).Estimator.batch_latency_s in
  let ga = Ga.optimize ~params:{ Ga.quick_params with Ga.seed = 5 } ctx v ~batch:16 in
  List.iter
    (fun (name, g) ->
      Alcotest.(check bool) (name ^ " >= dp") true (lat g >= dp.Optimal.value))
    [
      ("ga", ga.Ga.best.Ga.group);
      ("greedy", Baselines.greedy v);
      ("layerwise", Baselines.layerwise v);
    ]

let prop_dp_below_random_groups =
  QCheck.Test.make ~name:"dp value <= any random valid group" ~count:60
    QCheck.(pair (int_range 0 1_000_000) (int_range 1 32))
    (fun (seed, batch) ->
      let _, v, ctx = setup "lenet5" Config.chip_s in
      let g = Validity.random_group (Compass_util.Rng.create seed) v in
      List.for_all
        (fun objective ->
          let dp = Optimal.optimize ~objective ctx v ~batch in
          dp.Optimal.lower_bound
          <= Optimal.objective_value objective (Estimator.evaluate ctx ~batch g)
             *. (1. +. 1e-12))
        [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])

let test_dp_deterministic () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let a = Optimal.optimize ctx v ~batch:16 in
  let b = Optimal.optimize ctx v ~batch:16 in
  Alcotest.(check bool) "same group" true (Partition.equal a.Optimal.group b.Optimal.group);
  Alcotest.(check (float 0.)) "same value" a.Optimal.value b.Optimal.value

let test_dp_far_fewer_evaluations () =
  (* The headline trade: one group evaluation (plus one span sweep) versus
     the GA's hundreds. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let dp = Optimal.optimize ctx v ~batch:16 in
  let ga = Ga.optimize ~params:{ Ga.quick_params with Ga.seed = 5 } ctx v ~batch:16 in
  Alcotest.(check bool) "10x fewer group evaluations" true
    (10 * dp.Optimal.stats.Optimal.group_evaluations <= ga.Ga.evaluations);
  Alcotest.(check int) "every valid span evaluated once"
    dp.Optimal.stats.Optimal.valid_spans dp.Optimal.stats.Optimal.spans_evaluated

let test_warm_cache_reused () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let cache = Estimator.Span_cache.create ~batch:16 () in
  let a = Optimal.optimize ~cache ctx v ~batch:16 in
  let b = Optimal.optimize ~cache ctx v ~batch:16 in
  Alcotest.(check int) "second run all hits" 0 b.Optimal.stats.Optimal.spans_evaluated;
  Alcotest.(check bool) "same group" true (Partition.equal a.Optimal.group b.Optimal.group);
  (* Brand mismatches fail fast rather than mixing entries. *)
  Alcotest.check_raises "batch mismatch"
    (Invalid_argument "Optimal.optimize: cache built for batch 16, called with 8")
    (fun () -> ignore (Optimal.optimize ~cache ctx v ~batch:8))

(* The golden line for {Ga.quick_params with seed = 5} on resnet18-S-16,
   recorded before the DP/warm-start machinery existed.  An empty
   [warm_start] must leave the GA's draw sequence untouched, so this is
   bit-exact. *)
let golden_fitness = 0.0093858130185185181
let golden_cuts = [ 0; 10; 15; 32; 48; 64; 80; 91 ]
let golden_evaluations = 204
let golden_generations = 10
let golden_cache_spans = 422

let test_golden_ga_unchanged () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r = Ga.optimize ~params:{ Ga.quick_params with Ga.seed = 5 } ctx v ~batch:16 in
  Alcotest.(check (float 0.)) "fitness" golden_fitness r.Ga.best.Ga.fitness;
  Alcotest.(check (list int)) "cuts" golden_cuts
    (Array.to_list (Partition.cuts r.Ga.best.Ga.group));
  Alcotest.(check int) "evaluations" golden_evaluations r.Ga.evaluations;
  Alcotest.(check int) "generations" golden_generations r.Ga.generations_run;
  Alcotest.(check int) "cache spans" golden_cache_spans r.Ga.cache_spans

let test_golden_ga_traced_unchanged () =
  (* Observability is pure observation: with tracing and metrics enabled
     the GA must walk the bit-identical trajectory as the untraced golden
     run — same fitness, cuts, evaluation and generation counts. *)
  let open Compass_util in
  Trace.reset ();
  Metrics.reset ();
  Trace.enable ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Trace.disable ();
      Metrics.disable ();
      Trace.reset ();
      Metrics.reset ())
    (fun () ->
      let _, v, ctx = setup "resnet18" Config.chip_s in
      let r = Ga.optimize ~params:{ Ga.quick_params with Ga.seed = 5 } ctx v ~batch:16 in
      Alcotest.(check (float 0.)) "fitness" golden_fitness r.Ga.best.Ga.fitness;
      Alcotest.(check (list int)) "cuts" golden_cuts
        (Array.to_list (Partition.cuts r.Ga.best.Ga.group));
      Alcotest.(check int) "evaluations" golden_evaluations r.Ga.evaluations;
      Alcotest.(check int) "generations" golden_generations r.Ga.generations_run;
      Alcotest.(check int) "cache spans" golden_cache_spans r.Ga.cache_spans;
      (* The instrumentation itself observed the run it rode along with. *)
      Alcotest.(check (option int)) "fitness evaluations counted"
        (Some golden_evaluations)
        (Metrics.find_int "ga.fitness_evaluations");
      Alcotest.(check (option int)) "generations counted" (Some golden_generations)
        (Metrics.find_int "ga.generations");
      Alcotest.(check int) "generation spans recorded" golden_generations
        (List.length
           (List.filter
              (fun (e : Trace.event) -> e.Trace.name = "ga.generation" && e.Trace.phase = Trace.Begin)
              (Trace.events ()))))

let test_warm_start_seeds_population () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let dp = Optimal.optimize ctx v ~batch:16 in
  let seed_fitness =
    Fitness.group_fitness Fitness.Latency
      (Estimator.evaluate ctx ~batch:16 dp.Optimal.group)
  in
  let warm =
    Ga.optimize
      ~params:{ Ga.quick_params with Ga.seed = 5; Ga.warm_start = [ dp.Optimal.group ] }
      ctx v ~batch:16
  in
  (* Selection is elitist, so the best fitness can never exceed the
     injected seed's. *)
  Alcotest.(check bool) "never worse than the seed" true
    (warm.Ga.best.Ga.fitness <= seed_fitness);
  Alcotest.(check bool) "result valid" true
    (Validity.group_valid v warm.Ga.best.Ga.group);
  (* Invalid seeds are dropped, not propagated. *)
  let bogus = Partition.singleton (Validity.size v) in
  if not (Validity.group_valid v bogus) then begin
    let r =
      Ga.optimize
        ~params:{ Ga.quick_params with Ga.seed = 5; Ga.warm_start = [ bogus ] }
        ctx v ~batch:16
    in
    Alcotest.(check (float 0.)) "dropped seed = unseeded run" golden_fitness
      r.Ga.best.Ga.fitness
  end

let test_compiler_scheme () =
  let model = Compass_nn.Models.by_name "resnet18" in
  let chip = Config.chip_s in
  let plan = Compiler.compile ~model ~chip ~batch:16 Compiler.Optimal in
  Alcotest.(check bool) "dp result present" true (plan.Compiler.dp <> None);
  Alcotest.(check bool) "ga absent" true (plan.Compiler.ga = None);
  Alcotest.(check string) "name" "dp" (Compiler.scheme_to_string plan.Compiler.scheme);
  Alcotest.(check bool) "round trip" true
    (Compiler.scheme_of_string "optimal" = Compiler.Optimal
    && Compiler.scheme_of_string "DP" = Compiler.Optimal);
  let dp = Option.get plan.Compiler.dp in
  Alcotest.(check (float 0.)) "plan perf is the dp group's"
    dp.Optimal.perf.Estimator.batch_latency_s plan.Compiler.perf.Estimator.batch_latency_s

let test_compile_prepared_bit_identical () =
  (* The amortized front end and the shared span cache must not change any
     plan: same cuts, same floats, with and without them. *)
  let model = Compass_nn.Models.by_name "resnet18" in
  let chip = Config.chip_s in
  let ga_params = { Ga.quick_params with Ga.seed = 5 } in
  let prepared = Compiler.prepare ~model ~chip () in
  let cache = Estimator.Span_cache.create ~batch:16 () in
  List.iter
    (fun scheme ->
      let direct = Compiler.compile ~ga_params ~model ~chip ~batch:16 scheme in
      let shared =
        Compiler.compile_prepared ~ga_params ~cache ~batch:16 prepared scheme
      in
      let name = Compiler.scheme_to_string scheme in
      Alcotest.(check bool) (name ^ " same group") true
        (Partition.equal direct.Compiler.group shared.Compiler.group);
      Alcotest.(check (float 0.)) (name ^ " same latency")
        direct.Compiler.perf.Estimator.batch_latency_s
        shared.Compiler.perf.Estimator.batch_latency_s;
      Alcotest.(check (float 0.)) (name ^ " same energy")
        direct.Compiler.perf.Estimator.energy_j shared.Compiler.perf.Estimator.energy_j)
    [ Compiler.Optimal; Compiler.Compass; Compiler.Greedy; Compiler.Layerwise ]

(* The DP's span cache holds costs only, so the chosen group's [perf] is
   assembled from fresh records; it must be exactly what a fresh
   evaluation of the group gives, from a cold cache and from one the
   previous objective's sweep already filled. *)
let test_dp_perf_is_evaluate () =
  List.iter
    (fun (name, options) ->
      let _, v, ctx = setup name Config.chip_s in
      let cache = Estimator.Span_cache.create ~options ~batch:16 () in
      List.iter
        (fun objective ->
          let r = Optimal.optimize ~objective ~options ~cache ctx v ~batch:16 in
          let fresh = Estimator.evaluate ~options ctx ~batch:16 r.Optimal.group in
          let bits p = Marshal.to_string p [ Marshal.No_sharing ] in
          Alcotest.(check bool)
            (name ^ "/" ^ Fitness.objective_to_string objective ^ ": perf bit-identical")
            true
            (String.equal (bits r.Optimal.perf) (bits fresh)))
        [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])
    [
      ("resnet18", Estimator.default_options);
      ("squeezenet", { Estimator.default_options with Estimator.write_overlap = false });
    ]

let test_warm_start_compile () =
  let model = Compass_nn.Models.by_name "resnet18" in
  let plan =
    Compiler.compile
      ~ga_params:{ Ga.quick_params with Ga.seed = 5 }
      ~warm_start:true ~model ~chip:Config.chip_s ~batch:16 Compiler.Compass
  in
  let dp = Option.get plan.Compiler.dp in
  (* The GA may keep the DP seed or improve its own proxy around it, but
     the compiled plan can never be slower than simply taking the seed's
     proxy fitness. *)
  let ga = Option.get plan.Compiler.ga in
  Alcotest.(check bool) "ga <= seed proxy" true
    (ga.Ga.best.Ga.fitness
    <= Fitness.group_fitness Fitness.Latency dp.Optimal.perf)

let test_optimality_gap_report () =
  let model = Compass_nn.Models.by_name "resnet18" in
  let dp, rows =
    Report.optimality_gap
      ~ga_params:{ Ga.quick_params with Ga.seed = 5 }
      ~model ~chip:Config.chip_s ~batch:16 ()
  in
  Alcotest.(check (list string)) "row order"
    [ "dp"; "compass"; "greedy"; "layerwise" ]
    (List.map (fun r -> r.Report.gap_scheme) rows);
  Alcotest.(check bool) "dp gap zero" true
    ((List.hd rows).Report.gap <= 1e-12);
  List.iter
    (fun r -> Alcotest.(check bool) (r.Report.gap_scheme ^ " >= bound") true (r.Report.gap >= -.1e-12))
    rows;
  Alcotest.(check bool) "latency dp exact" true dp.Optimal.exact

(* The DP golden, captured before the DP moved from dense matrices to
   valid-span states: per (model, chip), a digest over batches 1/16/64,
   write overlap on and off and all four objectives of each result's value
   and lower-bound bits, [exact], [edges_relaxed] and cuts.  The DP's only
   inputs are the cached span costs, so any change to its bookkeeping
   must keep every digest.  The four largest state spaces other than
   vgg16-S are left out to keep the run to a couple of seconds. *)
let dp_golden =
  [
    ("vgg16", "S", "f663a0234c738e81a49231837c6a93a1");
    ("vgg16", "L", "38cb133ea787142b4f9569e8cd1804e2");
    ("resnet18", "S", "d3d5237756807433b75974a807c11648");
    ("resnet18", "M", "f8c736e8a03cb132b130f2393407bf59");
    ("resnet18", "L", "16088049f538ad816bea97a8cb3891f6");
    ("squeezenet", "S", "befb623a1541b5c111f29dfee89f56bb");
    ("squeezenet", "M", "f58a99f899f364c782a3e8a6bc04b9cd");
    ("squeezenet", "L", "4cae2b589cf2cb1a413c8221b4281a5f");
    ("lenet5", "S", "9b2d0bcca0311005d31d2af851e8e543");
    ("lenet5", "M", "c6e72e3d80535852b206e40828a08e13");
    ("lenet5", "L", "db10d534661ef51d06f702c837ad7289");
    ("tiny_mlp", "S", "acf27b4f4538581f455b186a872b655e");
    ("tiny_mlp", "M", "36444f3bf4671a83d4e17922de50544b");
    ("tiny_mlp", "L", "dc8bcd39be6adc9e33a808af8db8e1b2");
    ("tiny_resnet", "S", "107a3ec7790306285303116816a2ed73");
    ("tiny_resnet", "M", "6564449b2b9ea9bc643815acc9be9b86");
    ("tiny_resnet", "L", "c34220bb229e4a47e761a05380cd63ef");
    ("alexnet", "M", "3b40981ff6726637de2450c5e3747b77");
    ("alexnet", "L", "10b5f6e93290cea22dd1ff2f3dcc5e4c");
    ("vgg11", "L", "0321f7bd395efb074b9b00a2903ecf56");
    ("resnet34", "S", "a29b264000b4f379d0944eb4c5e6b8db");
    ("resnet34", "M", "ff82d8ef023094791338e7bc32797e0b");
    ("resnet34", "L", "7c73d2da42fe9247d7b848c31548c718");
    ("mobilenet_v1", "S", "98c27c5f22888e2afcc33305a0cb2bbc");
    ("mobilenet_v1", "M", "98563186507a8ac8903e06b6b525df09");
    ("mobilenet_v1", "L", "d8046551e50dcee74d7123a2092a0ae9");
  ]

let dp_golden_digest model chip =
  let _, v, ctx = setup model chip in
  let buf = Buffer.create 1024 in
  List.iter
    (fun batch ->
      List.iter
        (fun write_overlap ->
          let options = { Estimator.default_options with Estimator.write_overlap } in
          let cache = Estimator.Span_cache.create ~options ~batch () in
          List.iter
            (fun objective ->
              let r = Optimal.optimize ~objective ~options ~cache ctx v ~batch in
              Printf.bprintf buf "%Lx %Lx %b %d %s\n"
                (Int64.bits_of_float r.Optimal.value)
                (Int64.bits_of_float r.Optimal.lower_bound)
                r.Optimal.exact r.Optimal.stats.Optimal.edges_relaxed
                (String.concat ","
                   (List.map string_of_int
                      (Array.to_list (Partition.cuts r.Optimal.group)))))
            [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])
        [ true; false ])
    [ 1; 16; 64 ];
  Digest.to_hex (Digest.string (Buffer.contents buf))

let test_dp_golden () =
  List.iter
    (fun (model, chip_name, expected) ->
      Alcotest.(check string) (model ^ "-" ^ chip_name) expected
        (dp_golden_digest model (List.assoc chip_name Config.presets)))
    dp_golden

(* Deterministic, unlike wall time: the minor-heap words of a warm DP
   solve per relaxed edge, the final group evaluation included.  An edge
   step through closures and a per-start predecessor list costs about 10. *)
let test_dp_allocation_bound () =
  let _, v, ctx = setup "vgg16" Config.chip_s in
  let cache = Estimator.Span_cache.create ~batch:16 () in
  ignore (Optimal.optimize ~cache ctx v ~batch:16);
  let before = Gc.minor_words () in
  let r = Optimal.optimize ~cache ctx v ~batch:16 in
  let words = Gc.minor_words () -. before in
  let per_edge = words /. float_of_int r.Optimal.stats.Optimal.edges_relaxed in
  Alcotest.(check int) "warm: nothing evaluated" 0 r.Optimal.stats.Optimal.spans_evaluated;
  Alcotest.(check bool)
    (Printf.sprintf "%.2f minor words per edge < 2" per_edge)
    true (per_edge < 2.)

let () =
  Alcotest.run "optimal"
    [
      ( "dp",
        [
          Alcotest.test_case "brute force agreement" `Quick test_brute_force_agreement;
          Alcotest.test_case "group valid" `Quick test_dp_group_is_valid;
          Alcotest.test_case "dominates heuristics" `Quick test_dp_dominates_heuristics;
          Alcotest.test_case "deterministic" `Quick test_dp_deterministic;
          Alcotest.test_case "evaluation counts" `Quick test_dp_far_fewer_evaluations;
          Alcotest.test_case "warm cache" `Quick test_warm_cache_reused;
          Alcotest.test_case "perf is a fresh evaluation" `Quick test_dp_perf_is_evaluate;
          QCheck_alcotest.to_alcotest prop_dp_below_random_groups;
          Alcotest.test_case "golden results" `Quick test_dp_golden;
          Alcotest.test_case "allocation bound" `Quick test_dp_allocation_bound;
        ] );
      ( "warm-start",
        [
          Alcotest.test_case "golden GA line unchanged" `Quick test_golden_ga_unchanged;
          Alcotest.test_case "golden GA line unchanged under tracing" `Quick
            test_golden_ga_traced_unchanged;
          Alcotest.test_case "seeded population" `Quick test_warm_start_seeds_population;
        ] );
      ( "compiler",
        [
          Alcotest.test_case "dp scheme" `Quick test_compiler_scheme;
          Alcotest.test_case "prepared bit-identical" `Quick
            test_compile_prepared_bit_identical;
          Alcotest.test_case "warm-start compile" `Quick test_warm_start_compile;
          Alcotest.test_case "optimality gap report" `Quick test_optimality_gap_report;
        ] );
    ]
