(* Tests for the COMPASS genetic algorithm (Algorithm 1) and the baseline
   partitioners. *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

let quick seed = { Ga.quick_params with Ga.seed }

(* Baselines *)

let test_greedy_covers_and_valid () =
  List.iter
    (fun name ->
      let units, v, _ = setup name Config.chip_s in
      let g = Baselines.greedy v in
      Alcotest.(check int) (name ^ " covers") (Unit_gen.unit_count units)
        (Partition.total_units g);
      Alcotest.(check bool) (name ^ " valid") true (Validity.group_valid v g))
    [ "vgg16"; "resnet18"; "squeezenet" ]

let test_greedy_is_maximal () =
  let _, v, _ = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  List.iter
    (fun (s : Partition.span) ->
      Alcotest.(check int) "each span maximal" (Validity.max_end v s.Partition.start_)
        s.Partition.stop)
    (Partition.spans g)

let test_layerwise_valid () =
  List.iter
    (fun name ->
      let units, v, _ = setup name Config.chip_s in
      let g = Baselines.layerwise v in
      Alcotest.(check int) (name ^ " covers") (Unit_gen.unit_count units)
        (Partition.total_units g);
      Alcotest.(check bool) (name ^ " valid") true (Validity.group_valid v g))
    [ "vgg16"; "resnet18"; "squeezenet" ]

let test_layerwise_one_layer_per_partition () =
  (* Where a layer fits the chip, layerwise maps exactly one layer per
     partition. *)
  let units, v, ctx = setup "squeezenet" Config.chip_s in
  let g = Baselines.layerwise v in
  Alcotest.(check int) "one partition per weighted layer"
    (List.length units.Unit_gen.layer_units)
    (Partition.partition_count g);
  List.iter
    (fun (s : Partition.span) ->
      let io = Dataflow.span_io ctx ~start_:s.Partition.start_ ~stop:s.Partition.stop in
      Alcotest.(check int) "single conv/linear" 1
        (List.length io.Dataflow.weighted_layers))
    (Partition.spans g)

let test_layerwise_more_partitions_than_greedy () =
  let _, v, _ = setup "resnet18" Config.chip_s in
  Alcotest.(check bool) "finer" true
    (Partition.partition_count (Baselines.layerwise v)
    > Partition.partition_count (Baselines.greedy v))

(* GA *)

let test_ga_result_valid () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r = Ga.optimize ~params:(quick 1) ctx v ~batch:16 in
  Alcotest.(check bool) "best is valid" true (Validity.group_valid v r.Ga.best.Ga.group)

let test_ga_deterministic () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r1 = Ga.optimize ~params:(quick 5) ctx v ~batch:16 in
  let r2 = Ga.optimize ~params:(quick 5) ctx v ~batch:16 in
  Alcotest.(check bool) "same best group" true
    (Partition.equal r1.Ga.best.Ga.group r2.Ga.best.Ga.group);
  Alcotest.(check (float 0.)) "same fitness" r1.Ga.best.Ga.fitness r2.Ga.best.Ga.fitness

let check_results_identical label (r1 : Ga.result) (r2 : Ga.result) =
  Alcotest.(check bool) (label ^ ": same best group") true
    (Partition.equal r1.Ga.best.Ga.group r2.Ga.best.Ga.group);
  Alcotest.(check (float 0.)) (label ^ ": same fitness") r1.Ga.best.Ga.fitness
    r2.Ga.best.Ga.fitness;
  Alcotest.(check int) (label ^ ": same generations") r1.Ga.generations_run
    r2.Ga.generations_run;
  Alcotest.(check int) (label ^ ": same evaluations") r1.Ga.evaluations r2.Ga.evaluations;
  Alcotest.(check int) (label ^ ": same cache size") r1.Ga.cache_spans r2.Ga.cache_spans;
  Alcotest.(check int) (label ^ ": same history length")
    (List.length r1.Ga.history) (List.length r2.Ga.history);
  List.iter2
    (fun (g1 : Ga.generation_record) (g2 : Ga.generation_record) ->
      let tag = Printf.sprintf "%s gen %d" label g1.Ga.generation in
      Alcotest.(check int) (tag ^ ": index") g1.Ga.generation g2.Ga.generation;
      Alcotest.(check (float 0.)) (tag ^ ": best") g1.Ga.best_fitness g2.Ga.best_fitness;
      Alcotest.(check (list (pair (float 0.) int)))
        (tag ^ ": selected") g1.Ga.selected g2.Ga.selected;
      Alcotest.(check (list (pair (float 0.) int)))
        (tag ^ ": mutated") g1.Ga.mutated g2.Ga.mutated)
    r1.Ga.history r2.Ga.history

let test_ga_parallel_determinism () =
  (* The headline guarantee: any worker count replays the same search. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let run jobs = Ga.optimize ~params:{ (quick 5) with Ga.jobs } ctx v ~batch:16 in
  let r1 = run 1 in
  List.iter
    (fun jobs -> check_results_identical (Printf.sprintf "jobs=%d" jobs) r1 (run jobs))
    [ 2; 4 ]

let prop_ga_parallel_determinism =
  QCheck.Test.make ~name:"GA identical at jobs=1 and jobs=3" ~count:4
    QCheck.(pair small_int bool)
    (fun (seed, small_chip) ->
      let chip = if small_chip then Config.chip_s else Config.chip_m in
      let _, v, ctx = setup "resnet18" chip in
      let tiny jobs =
        {
          (quick seed) with
          Ga.population = 8;
          Ga.generations = 4;
          Ga.n_sel = 3;
          Ga.n_mut = 5;
          Ga.jobs = jobs;
        }
      in
      let r1 = Ga.optimize ~params:(tiny 1) ctx v ~batch:8 in
      let r3 = Ga.optimize ~params:(tiny 3) ctx v ~batch:8 in
      Partition.equal r1.Ga.best.Ga.group r3.Ga.best.Ga.group
      && r1.Ga.best.Ga.fitness = r3.Ga.best.Ga.fitness
      && r1.Ga.history = r3.Ga.history
      && r1.Ga.evaluations = r3.Ga.evaluations
      && r1.Ga.cache_spans = r3.Ga.cache_spans)

(* Mutation operators: whatever the scheme does, the child must remain a
   contiguous cover of the unit range (validity is re-checked by the
   search; coverage must never be lost). *)

let prop_mutations_preserve_cover =
  let _, v, _ = setup "resnet18" Config.chip_s in
  QCheck.Test.make ~name:"mutation schemes preserve unit cover" ~count:100
    QCheck.(pair small_int (int_bound 3))
    (fun (seed, scheme_idx) ->
      let scheme =
        List.nth [ Ga.Merge; Ga.Split; Ga.Move; Ga.Fixed_random ] scheme_idx
      in
      let rng = Compass_util.Rng.create (succ seed) in
      let parent = Validity.random_group rng v in
      let scores =
        Array.init (Partition.partition_count parent) (fun _ ->
            Compass_util.Rng.float rng 1.)
      in
      match Ga.mutate scheme rng v ~scores parent with
      | child ->
        Partition.total_units child = Partition.total_units parent
        && Partition.partition_count child >= 1
      | exception Invalid_argument _ ->
        (* Inapplicable on this parent (e.g. nothing to merge or split);
           the search retries with another scheme. *)
        true)

let test_ga_beats_or_matches_random () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r = Ga.optimize ~params:(quick 2) ctx v ~batch:16 in
  let rng = Compass_util.Rng.create 1234 in
  let random_best =
    List.fold_left
      (fun acc _ ->
        let g = Validity.random_group rng v in
        let p = Estimator.evaluate ctx ~batch:16 g in
        min acc (Fitness.group_fitness Fitness.Latency p))
      infinity (List.init 24 (fun i -> i))
  in
  Alcotest.(check bool) "GA at least as good as 24 random draws" true
    (r.Ga.best.Ga.fitness <= random_best +. 1e-12)

let test_ga_best_monotone_over_generations () =
  let _, v, ctx = setup "resnet18" Config.chip_m in
  let r = Ga.optimize ~params:(quick 3) ctx v ~batch:16 in
  let bests = List.map (fun g -> g.Ga.best_fitness) r.Ga.history in
  let rec non_increasing = function
    | a :: (b :: _ as rest) -> a >= b -. 1e-12 && non_increasing rest
    | _ -> true
  in
  Alcotest.(check bool) "best fitness never regresses" true (non_increasing bests)

let test_ga_population_sizes () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let params = { (quick 4) with Ga.early_stop_patience = 0 } in
  let r = Ga.optimize ~params ctx v ~batch:16 in
  Alcotest.(check int) "all generations run" params.Ga.generations r.Ga.generations_run;
  List.iter
    (fun rec_ ->
      Alcotest.(check int) "selected size" params.Ga.n_sel (List.length rec_.Ga.selected);
      Alcotest.(check int) "mutated size" params.Ga.n_mut (List.length rec_.Ga.mutated))
    r.Ga.history

let test_ga_early_stopping () =
  (* Single-partition models converge instantly; early stopping must fire. *)
  let _, v, ctx = setup "lenet5" Config.chip_s in
  let params = { (quick 6) with Ga.generations = 30; Ga.early_stop_patience = 3 } in
  let r = Ga.optimize ~params ctx v ~batch:8 in
  Alcotest.(check bool) "stopped early" true (r.Ga.generations_run < 30)

let test_ga_objectives_differ () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r_lat = Ga.optimize ~params:(quick 7) ~objective:Fitness.Latency ctx v ~batch:16 in
  let r_en = Ga.optimize ~params:(quick 7) ~objective:Fitness.Energy ctx v ~batch:16 in
  (* Each run's reported fitness is its own objective's group fitness... *)
  Alcotest.(check (float 1e-9)) "latency fitness consistent"
    (Fitness.group_fitness Fitness.Latency r_lat.Ga.best.Ga.perf)
    r_lat.Ga.best.Ga.fitness;
  Alcotest.(check (float 1e-9)) "energy fitness consistent"
    (Fitness.group_fitness Fitness.Energy r_en.Ga.best.Ga.perf)
    r_en.Ga.best.Ga.fitness;
  (* ...and the energy-objective search cannot lose badly at its own game
     (small GA budgets leave some stochastic slack). *)
  Alcotest.(check bool) "energy objective competitive on energy" true
    (Fitness.group_fitness Fitness.Energy r_en.Ga.best.Ga.perf
    <= 1.1 *. Fitness.group_fitness Fitness.Energy r_lat.Ga.best.Ga.perf)

let test_ga_scheme_subsets () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  List.iter
    (fun scheme ->
      let params = { (quick 11) with Ga.schemes = [ scheme ] } in
      let r = Ga.optimize ~params ctx v ~batch:16 in
      Alcotest.(check bool)
        (Ga.scheme_name scheme ^ " alone still valid")
        true
        (Validity.group_valid v r.Ga.best.Ga.group))
    [ Ga.Merge; Ga.Split; Ga.Move; Ga.Fixed_random ]

let test_ga_bad_scheme_params () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  Alcotest.(check bool) "empty schemes rejected" true
    (try
       ignore (Ga.optimize ~params:{ (quick 1) with Ga.schemes = [] } ctx v ~batch:1);
       false
     with Invalid_argument _ -> true)

let test_ga_invalid_params () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  Alcotest.(check bool) "n_sel > population" true
    (try
       ignore
         (Ga.optimize ~params:{ (quick 1) with Ga.n_sel = 1000 } ctx v ~batch:1);
       false
     with Invalid_argument _ -> true)

let test_ga_history_partitions_positive () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let r = Ga.optimize ~params:(quick 8) ctx v ~batch:16 in
  List.iter
    (fun rec_ ->
      List.iter
        (fun (f, parts) ->
          Alcotest.(check bool) "positive fitness" true (f > 0.);
          Alcotest.(check bool) "positive partitions" true (parts >= 1))
        (rec_.Ga.selected @ rec_.Ga.mutated))
    r.Ga.history

let test_ga_evaluation_count () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let params = { (quick 9) with Ga.early_stop_patience = 0 } in
  let r = Ga.optimize ~params ctx v ~batch:16 in
  (* population + n_mut per generation (mutation fallbacks may add a few). *)
  let minimum = params.Ga.population + (params.Ga.generations * params.Ga.n_mut) in
  Alcotest.(check bool) "evaluations counted" true (r.Ga.evaluations >= minimum)

(* The search scores candidates from span records and assembles a [perf]
   only for the best; that [perf] must be exactly what a fresh evaluation
   of the group gives, under every objective and non-default options. *)
let test_ga_best_perf_is_evaluate () =
  let faults =
    Fault.make ~endurance_budget:1e6
      (Array.init Config.chip_s.Config.cores (fun c ->
           if c = 3 then Fault.Dead else if c = 5 then Fault.Degraded 4 else Fault.Healthy))
  in
  List.iter
    (fun (name, objective, options) ->
      let units = Unit_gen.generate (Compass_nn.Models.by_name name) Config.chip_s in
      let v = Validity.build ?faults:options.Estimator.faults units in
      let ctx = Dataflow.context units in
      let r = Ga.optimize ~params:(quick 4) ~objective ~options ctx v ~batch:16 in
      let best = r.Ga.best in
      let fresh = Estimator.evaluate ~options ctx ~batch:16 best.Ga.group in
      let bits p = Marshal.to_string p [ Marshal.No_sharing ] in
      let label = name ^ "/" ^ Fitness.objective_to_string objective in
      Alcotest.(check bool) (label ^ ": perf bit-identical") true
        (String.equal (bits best.Ga.perf) (bits fresh));
      Alcotest.(check string) (label ^ ": fitness of the perf")
        (Printf.sprintf "%h" (Fitness.group_fitness objective fresh))
        (Printf.sprintf "%h" best.Ga.fitness))
    [
      ("resnet18", Fitness.Latency, Estimator.default_options);
      ("squeezenet", Fitness.Energy, { Estimator.default_options with Estimator.abft = true });
      ( "mobilenet_v1",
        Fitness.Wear,
        { Estimator.default_options with Estimator.faults = Some faults } );
      ("resnet18", Fitness.Edp, { Estimator.default_options with Estimator.write_overlap = false });
    ]

(* Trajectory pins: vgg16 on chip S at batch 1 (the longest unit profile
   in the benchmark sweep), [Ga.default_params] with seed 1 and one job,
   under every objective.  Any change to the estimator, the fitness
   extraction or the search that is meant to be exact must leave the
   per-generation best fitness, the plan bytes and the search counters
   exactly as they are here. *)

type trajectory_pin = {
  objective : Fitness.objective;
  plan_digest : string;  (** MD5 of [Plan_text.to_string], hex. *)
  evaluations : int;
  cache_spans : int;
  best_fitness : string list;  (** Per generation, [%h]. *)
}

let trajectory_pins =
  [
    {
      objective = Fitness.Latency;
      plan_digest = "0c85360fcf53ad593712715efc12f603";
      evaluations = 1780;
      cache_spans = 12822;
      best_fitness =
        [
        "0x1.4efae2f1e846cp-6"; "0x1.4b306522119fp-6"; "0x1.4b306522119fp-6";
        "0x1.47623e26e9e4cp-6"; "0x1.47623dc882d9ap-6"; "0x1.47623dc882d9ap-6";
        "0x1.468b7de3cbeadp-6"; "0x1.468b7de3cbeadp-6"; "0x1.468b7de3cbeadp-6";
        "0x1.468b7de3cbeadp-6"; "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6";
        "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6";
        "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6";
        "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6"; "0x1.4397c1638d3f6p-6";
        ];
    };
    {
      objective = Fitness.Energy;
      plan_digest = "1abb5c95a6fe7c730f74feab24e776ec";
      evaluations = 2500;
      cache_spans = 13997;
      best_fitness =
        [
        "0x1.6de4c0e46e2dfp-6"; "0x1.6de4c0e46e2dep-6"; "0x1.6de4c0e46e2dep-6";
        "0x1.6de4938f54fd1p-6"; "0x1.6de49389966cep-6"; "0x1.6de49389966cep-6";
        "0x1.6de49389966cep-6"; "0x1.6de49389966cep-6"; "0x1.6de49389966cep-6";
        "0x1.6de49389966cep-6"; "0x1.6de49383200adp-6"; "0x1.6de49383200adp-6";
        "0x1.6de49383200acp-6"; "0x1.6de49383200acp-6"; "0x1.6de49383200acp-6";
        "0x1.6de45fbc38855p-6"; "0x1.6de45fbc38855p-6"; "0x1.6de429fabbb65p-6";
        "0x1.6de429fabbb65p-6"; "0x1.6de4212eeef5cp-6"; "0x1.6de4212eeef5cp-6";
        "0x1.6de3eb4ea8da4p-6"; "0x1.6de3b56e62beap-6"; "0x1.6de3b56e62be9p-6";
        "0x1.6de3aca295fep-6"; "0x1.6de3aca295fep-6"; "0x1.6de3aca295fdfp-6";
        "0x1.6de3aca295fdfp-6"; "0x1.6de3aca295fdfp-6"; "0x1.6de3aca295fdfp-6";
        ];
    };
    {
      objective = Fitness.Edp;
      plan_digest = "c1cfea4e3a7204233f1b7ca3b3c6b09f";
      evaluations = 2500;
      cache_spans = 14294;
      best_fitness =
        [
        "0x1.bf22a6d5a2a63p-18"; "0x1.ab348dee4c31ap-18"; "0x1.a373b7a0bd439p-18";
        "0x1.a138aa5021a77p-18"; "0x1.9b537219543p-18"; "0x1.9780ef22409f4p-18";
        "0x1.945d55c504b76p-18"; "0x1.90742997d639ap-18"; "0x1.8facd0e2394ebp-18";
        "0x1.89828f1ad3c65p-18"; "0x1.89828f1ad3c65p-18"; "0x1.89828e16646b1p-18";
        "0x1.8978bfc68362dp-18"; "0x1.8972dbeaab11p-18"; "0x1.89690e0f7c695p-18";
        "0x1.89596335716dfp-18"; "0x1.89595adf53b3fp-18"; "0x1.89537de077604p-18";
        "0x1.89537de077604p-18"; "0x1.8943d3066c64fp-18"; "0x1.8943d3066c64fp-18";
        "0x1.8934282c61699p-18"; "0x1.8934282c61699p-18"; "0x1.89330e2819f19p-18";
        "0x1.8932fc156d357p-18"; "0x1.893187b90d48fp-18"; "0x1.893187b90d48fp-18";
        "0x1.893187b90d48fp-18"; "0x1.8928e8ec19b0ep-18"; "0x1.8928b5ab39f84p-18";
        ];
    };
    {
      objective = Fitness.Wear;
      plan_digest = "4fa2cde7185665fbfc598970f971c782";
      evaluations = 1380;
      cache_spans = 11741;
      best_fitness =
        [
        "0x1.ec44a2383a9d4p-3"; "0x1.ebcb52be2703p-3"; "0x1.eb518ddec20bcp-3";
        "0x1.eb518ddec20bcp-3"; "0x1.eb518ddec20bcp-3"; "0x1.ead83db79c327p-3";
        "0x1.ead83db79c327p-3"; "0x1.ead83db79c326p-3"; "0x1.ead83db79c326p-3";
        "0x1.ead83db79c326p-3"; "0x1.ead83db79c326p-3"; "0x1.ead83db79c326p-3";
        "0x1.ead83db79c326p-3"; "0x1.ead83db79c326p-3"; "0x1.ead83db79c326p-3";
        "0x1.ead83db79c326p-3";
        ];
    };
  ]

let test_ga_trajectory_pins () =
  let model = Compass_nn.Models.by_name "vgg16" in
  let ga_params = { Ga.default_params with Ga.seed = 1; jobs = 1 } in
  List.iter
    (fun pin ->
      let name = Fitness.objective_to_string pin.objective in
      let plan =
        Compiler.compile ~objective:pin.objective ~ga_params ~jobs:1 ~model
          ~chip:Config.chip_s ~batch:1 Compiler.Compass
      in
      let r = Option.get plan.Compiler.ga in
      Alcotest.(check (list string))
        (name ^ ": best fitness per generation")
        pin.best_fitness
        (List.map (fun g -> Printf.sprintf "%h" g.Ga.best_fitness) r.Ga.history);
      Alcotest.(check string) (name ^ ": plan digest") pin.plan_digest
        (Digest.to_hex (Digest.string (Plan_text.to_string plan)));
      Alcotest.(check int) (name ^ ": evaluations") pin.evaluations r.Ga.evaluations;
      Alcotest.(check int) (name ^ ": cache spans") pin.cache_spans r.Ga.cache_spans)
    trajectory_pins

(* COMPASS vs baselines: the headline comparison (Fig. 6 direction). *)

let test_compass_not_worse_than_greedy () =
  List.iter
    (fun name ->
      let _, v, ctx = setup name Config.chip_s in
      let r = Ga.optimize ~params:(quick 10) ctx v ~batch:16 in
      let greedy = Estimator.evaluate ctx ~batch:16 (Baselines.greedy v) in
      Alcotest.(check bool)
        (name ^ ": compass >= greedy throughput")
        true
        (r.Ga.best.Ga.perf.Estimator.throughput_per_s
        >= 0.999 *. greedy.Estimator.throughput_per_s))
    [ "resnet18"; "squeezenet" ]

let prop_ga_valid_across_seeds =
  QCheck.Test.make ~name:"GA best valid across seeds" ~count:8 QCheck.small_int
    (fun seed ->
      let _, v, ctx = setup "resnet18" Config.chip_s in
      let r = Ga.optimize ~params:(quick seed) ctx v ~batch:16 in
      Validity.group_valid v r.Ga.best.Ga.group)

let () =
  Alcotest.run "ga"
    [
      ( "baselines",
        [
          Alcotest.test_case "greedy covers and valid" `Quick test_greedy_covers_and_valid;
          Alcotest.test_case "greedy maximal spans" `Quick test_greedy_is_maximal;
          Alcotest.test_case "layerwise valid" `Quick test_layerwise_valid;
          Alcotest.test_case "layerwise one layer each" `Quick
            test_layerwise_one_layer_per_partition;
          Alcotest.test_case "layerwise finer than greedy" `Quick
            test_layerwise_more_partitions_than_greedy;
        ] );
      ( "algorithm",
        [
          Alcotest.test_case "result valid" `Quick test_ga_result_valid;
          Alcotest.test_case "deterministic" `Quick test_ga_deterministic;
          Alcotest.test_case "parallel determinism" `Quick test_ga_parallel_determinism;
          QCheck_alcotest.to_alcotest prop_ga_parallel_determinism;
          QCheck_alcotest.to_alcotest prop_mutations_preserve_cover;
          Alcotest.test_case "beats random search" `Quick test_ga_beats_or_matches_random;
          Alcotest.test_case "best monotone" `Quick test_ga_best_monotone_over_generations;
          Alcotest.test_case "population sizes" `Quick test_ga_population_sizes;
          Alcotest.test_case "early stopping" `Quick test_ga_early_stopping;
          Alcotest.test_case "objectives differ" `Quick test_ga_objectives_differ;
          Alcotest.test_case "invalid params" `Quick test_ga_invalid_params;
          Alcotest.test_case "scheme subsets" `Quick test_ga_scheme_subsets;
          Alcotest.test_case "bad scheme params" `Quick test_ga_bad_scheme_params;
          Alcotest.test_case "history sane" `Quick test_ga_history_partitions_positive;
          Alcotest.test_case "evaluation count" `Quick test_ga_evaluation_count;
          Alcotest.test_case "trajectory pins" `Quick test_ga_trajectory_pins;
          Alcotest.test_case "best perf = evaluate" `Quick test_ga_best_perf_is_evaluate;
          Alcotest.test_case "compass >= greedy" `Slow test_compass_not_worse_than_greedy;
          QCheck_alcotest.to_alcotest prop_ga_valid_across_seeds;
        ] );
    ]
