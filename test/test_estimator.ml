(* Tests for the performance estimator and fitness extraction. *)

open Compass_core
open Compass_arch

let setup name chip =
  let units = Unit_gen.generate (Compass_nn.Models.by_name name) chip in
  let v = Validity.build units in
  (units, v, Dataflow.context units)

let eval ctx v ?(batch = 16) scheme =
  let g = match scheme with `Greedy -> Baselines.greedy v | `Layerwise -> Baselines.layerwise v in
  Estimator.evaluate ctx ~batch g

let test_positive_outputs () =
  List.iter
    (fun name ->
      let _, v, ctx = setup name Config.chip_s in
      let p = eval ctx v `Greedy in
      Alcotest.(check bool) (name ^ " latency > 0") true (p.Estimator.batch_latency_s > 0.);
      Alcotest.(check bool) (name ^ " energy > 0") true (p.Estimator.energy_j > 0.);
      Alcotest.(check bool) (name ^ " throughput > 0") true
        (p.Estimator.throughput_per_s > 0.))
    [ "vgg16"; "resnet18"; "squeezenet"; "lenet5" ]

let test_latency_monotone_in_batch () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let l b = (Estimator.evaluate ctx ~batch:b g).Estimator.batch_latency_s in
  Alcotest.(check bool) "monotone" true (l 1 < l 4 && l 4 < l 16 && l 16 < l 64)

let test_energy_per_sample_decreases_with_batch () =
  (* Weight writes amortize (paper Fig. 8). *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let e b = (Estimator.evaluate ctx ~batch:b g).Estimator.energy_per_sample_j in
  Alcotest.(check bool) "amortization" true (e 1 > e 4 && e 4 > e 16)

let test_group_latency_sums_spans_with_overlap () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let p = Estimator.evaluate ctx ~batch:16 g in
  let raw_sum =
    List.fold_left (fun acc sp -> acc +. sp.Estimator.span_s) 0. p.Estimator.spans
  in
  Alcotest.(check bool) "overlap only reduces" true
    (p.Estimator.batch_latency_s <= raw_sum +. 1e-12);
  Alcotest.(check bool) "not below compute+io" true
    (p.Estimator.batch_latency_s
    >= List.fold_left
         (fun acc sp -> acc +. max sp.Estimator.compute_s sp.Estimator.io_s)
         0. p.Estimator.spans
       -. 1e-12)

let test_span_cache_consistency () =
  let _, v, ctx = setup "resnet18" Config.chip_m in
  let g = Baselines.layerwise v in
  let direct = Estimator.evaluate ctx ~batch:8 g in
  let cache = Estimator.Span_cache.create ~batch:8 () in
  let cached = Estimator.evaluate_cached ~cache ctx ~batch:8 g in
  Alcotest.(check (float 1e-12)) "same latency" direct.Estimator.batch_latency_s
    cached.Estimator.batch_latency_s;
  Alcotest.(check (float 1e-12)) "same energy" direct.Estimator.energy_j
    cached.Estimator.energy_j;
  Alcotest.(check int) "spans cached" (Partition.partition_count g)
    (Estimator.Span_cache.length cache);
  (* Second call hits the cache with identical results. *)
  let again = Estimator.evaluate_cached ~cache ctx ~batch:8 g in
  Alcotest.(check (float 0.)) "cache stable" cached.Estimator.batch_latency_s
    again.Estimator.batch_latency_s

(* Regression for the keying hazard: span_perf results depend on batch and
   options, so a cache must refuse to serve a differently-configured
   evaluation instead of silently returning stale entries. *)
let test_span_cache_brand_mismatch () =
  let _, v, ctx = setup "resnet18" Config.chip_m in
  let g = Baselines.layerwise v in
  let cache = Estimator.Span_cache.create ~batch:8 () in
  ignore (Estimator.evaluate_cached ~cache ctx ~batch:8 g);
  Alcotest.(check bool) "batch mismatch rejected" true
    (try
       ignore (Estimator.evaluate_cached ~cache ctx ~batch:16 g);
       false
     with Invalid_argument _ -> true);
  let other_options =
    Estimator.Span_cache.create
      ~options:{ Estimator.default_options with Estimator.charge_writes = false }
      ~batch:8 ()
  in
  Alcotest.(check bool) "shared options mismatch rejected" true
    (try
       ignore (Estimator.evaluate_cached ~shared:other_options ~cache ctx ~batch:8 g);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "merge brand mismatch rejected" true
    (try
       Estimator.Span_cache.merge_into cache ~src:other_options;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad batch rejected" true
    (try
       ignore (Estimator.Span_cache.create ~batch:0 ());
       false
     with Invalid_argument _ -> true)

let test_span_cache_options_respected () =
  (* A cache branded with non-default options evaluates under them. *)
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let options = { Estimator.default_options with Estimator.charge_writes = false } in
  let cache = Estimator.Span_cache.create ~options ~batch:16 () in
  let cached = Estimator.evaluate_cached ~cache ctx ~batch:16 g in
  let direct = Estimator.evaluate ~options ctx ~batch:16 g in
  Alcotest.(check (float 1e-12)) "options applied" direct.Estimator.batch_latency_s
    cached.Estimator.batch_latency_s

(* A warm hit only reads a table, so it allocates nothing, with or
   without a shared cache.  [minor_words] boxes its result, so the cost of
   one bare reading pair is subtracted; [shared] is boxed once, outside
   the measured loop. *)
let test_span_cache_hit_allocates_nothing () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let stop = Validity.max_end v 0 in
  let cache = Estimator.Span_cache.create ~batch:16 () in
  let shared = Some (Estimator.Span_cache.create ~batch:16 ()) in
  ignore (Estimator.span_cost_cached ~cache ctx ~start_:0 ~stop);
  let hits shared () =
    for _ = 1 to 1000 do
      ignore (Estimator.span_cost_cached ?shared ~cache ctx ~start_:0 ~stop)
    done
  in
  let minor_words_of f =
    let calibrate = Gc.minor_words () in
    let bare = Gc.minor_words () -. calibrate in
    let before = Gc.minor_words () in
    f ();
    Gc.minor_words () -. before -. bare
  in
  Alcotest.(check (float 0.)) "1000 hits" 0. (minor_words_of (hits None));
  Alcotest.(check (float 0.)) "1000 hits, shared" 0. (minor_words_of (hits shared))

let test_span_cache_shared_and_merge () =
  let _, v, ctx = setup "resnet18" Config.chip_m in
  let g = Baselines.layerwise v in
  let shared = Estimator.Span_cache.create ~batch:8 () in
  let local = Estimator.Span_cache.create ~batch:8 () in
  let p1 = Estimator.evaluate_cached ~shared ~cache:local ctx ~batch:8 g in
  Alcotest.(check int) "misses recorded locally" (Partition.partition_count g)
    (Estimator.Span_cache.length local);
  Alcotest.(check int) "shared untouched" 0 (Estimator.Span_cache.length shared);
  Estimator.Span_cache.merge_into shared ~src:local;
  Alcotest.(check int) "merged" (Partition.partition_count g)
    (Estimator.Span_cache.length shared);
  (* After the merge a fresh local cache stays empty: every span hits. *)
  let local2 = Estimator.Span_cache.create ~batch:8 () in
  let p2 = Estimator.evaluate_cached ~shared ~cache:local2 ctx ~batch:8 g in
  Alcotest.(check int) "all hits" 0 (Estimator.Span_cache.length local2);
  Alcotest.(check (float 0.)) "identical result" p1.Estimator.batch_latency_s
    p2.Estimator.batch_latency_s

let test_write_time_scales_with_weights () =
  let _, v, ctx = setup "vgg16" Config.chip_s in
  let g = Baselines.greedy v in
  let p = Estimator.evaluate ctx ~batch:1 g in
  (* Total weight fetches must at least cover the model at DRAM bandwidth. *)
  let total_write = List.fold_left (fun acc sp -> acc +. sp.Estimator.write_s) 0. p.Estimator.spans in
  let weights = 65.97 *. 1024. *. 1024. in
  Alcotest.(check bool) "write time >= dram bound" true
    (total_write >= weights /. 6.4e9)

let test_unique_bytes_cover_model_once () =
  let units, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let p = Estimator.evaluate ctx ~batch:4 g in
  let unique =
    List.fold_left (fun acc sp -> acc +. sp.Estimator.unique_weight_bytes) 0. p.Estimator.spans
  in
  Alcotest.(check (float 1.)) "sum equals model weights"
    (Unit_gen.span_weight_bytes units 0 (Unit_gen.unit_count units))
    unique

let test_programmed_at_least_unique () =
  let _, v, ctx = setup "squeezenet" Config.chip_s in
  let g = Baselines.greedy v in
  let p = Estimator.evaluate ctx ~batch:4 g in
  List.iter
    (fun sp ->
      Alcotest.(check bool) "replicas only add" true
        (sp.Estimator.programmed_bytes >= sp.Estimator.unique_weight_bytes -. 1e-6))
    p.Estimator.spans

let test_edp_definition () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let p = eval ctx v `Greedy in
  Alcotest.(check (float 1e-12)) "edp = e/sample x latency"
    (p.Estimator.energy_per_sample_j *. p.Estimator.batch_latency_s)
    p.Estimator.edp_j_s

let test_energy_components_sum () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let p = eval ctx v `Greedy in
  let sum = List.fold_left (fun acc (_, e) -> acc +. e) 0. p.Estimator.energy_components in
  Alcotest.(check (float 1e-9)) "components sum to total" p.Estimator.energy_j sum

let test_more_cores_not_slower_bottleneck () =
  (* Replication 1, same model: a bigger chip never has a slower pipeline
     bottleneck in any single full-model partition. *)
  let _, _, ctx_s = setup "squeezenet" Config.chip_s in
  let units_l = Unit_gen.generate (Compass_nn.Models.squeezenet ()) Config.chip_l in
  let ctx_l = Dataflow.context units_l in
  let m_s = Unit_gen.unit_count (Dataflow.units ctx_s) in
  let m_l = Unit_gen.unit_count units_l in
  let p_s = Estimator.span_perf ctx_s ~batch:1 ~start_:0 ~stop:m_s in
  let p_l = Estimator.span_perf ctx_l ~batch:1 ~start_:0 ~stop:m_l in
  Alcotest.(check bool) "both positive" true
    (p_s.Estimator.bottleneck_s > 0. && p_l.Estimator.bottleneck_s > 0.)

let test_io_s_zero_for_no_io () =
  (* A full on-chip model still loads input and stores output, so io > 0;
     but compute must dominate for squeezenet. *)
  let units, _, ctx = setup "squeezenet" Config.chip_m in
  let sp = Estimator.span_perf ctx ~batch:16 ~start_:0 ~stop:(Unit_gen.unit_count units) in
  Alcotest.(check bool) "io positive" true (sp.Estimator.io_s > 0.);
  Alcotest.(check bool) "compute bound" true (sp.Estimator.compute_s > sp.Estimator.io_s)

let test_invalid_args () =
  let _, v, ctx = setup "lenet5" Config.chip_s in
  Alcotest.(check bool) "batch 0" true
    (try
       ignore (Estimator.evaluate ctx ~batch:0 (Baselines.greedy v));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "wrong cover" true
    (try
       ignore (Estimator.evaluate ctx ~batch:1 (Partition.singleton 1));
       Validity.size v = 1
     with Invalid_argument _ -> true)

let test_model_options () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let g = Baselines.greedy v in
  let eval options = Estimator.evaluate ~options ctx ~batch:16 g in
  let full = eval Estimator.default_options in
  let no_overlap =
    eval { Estimator.default_options with Estimator.write_overlap = false }
  in
  let no_buffer =
    eval { Estimator.default_options with Estimator.onchip_buffering = false }
  in
  let free_writes =
    eval { Estimator.default_options with Estimator.charge_writes = false }
  in
  Alcotest.(check bool) "overlap only helps" true
    (full.Estimator.batch_latency_s <= no_overlap.Estimator.batch_latency_s +. 1e-12);
  Alcotest.(check bool) "buffering never increases dram traffic" true
    (List.fold_left (fun a sp -> a +. sp.Estimator.io_dram_bytes) 0. full.Estimator.spans
    <= List.fold_left (fun a sp -> a +. sp.Estimator.io_dram_bytes) 0.
         no_buffer.Estimator.spans
       +. 1e-9);
  Alcotest.(check bool) "free writes strictly faster" true
    (free_writes.Estimator.batch_latency_s < full.Estimator.batch_latency_s);
  List.iter
    (fun sp -> Alcotest.(check (float 0.)) "no write time" 0. sp.Estimator.write_s)
    free_writes.Estimator.spans

(* Pipeline_sim: independent validation of fill + B*bottleneck. *)

let test_pipeline_sim_agreement () =
  List.iter
    (fun (name, chip) ->
      let _, v, ctx = setup name chip in
      let g = Baselines.greedy v in
      List.iteri
        (fun i (s : Partition.span) ->
          if i < 3 then
            let r =
              Pipeline_sim.estimator_agreement ctx ~batch:4 ~start_:s.Partition.start_
                ~stop:s.Partition.stop
            in
            Alcotest.(check bool)
              (Printf.sprintf "%s P%d agreement %.3f" name i r)
              true
              (r > 0.9 && r < 1.3))
        (Partition.spans g))
    [ ("squeezenet", Config.chip_s); ("resnet18", Config.chip_s); ("lenet5", Config.chip_s) ]

let test_pipeline_sim_basics () =
  (* Two-stage chain: consumer waits for matching producer progress. *)
  let stages =
    [
      { Pipeline_sim.node = 0; items = 4; item_time_s = 1.; producers = [] };
      { Pipeline_sim.node = 1; items = 4; item_time_s = 2.; producers = [ 0 ] };
    ]
  in
  let r = Pipeline_sim.simulate ~batch:1 stages in
  (* Stage 1 is the bottleneck: 4 items x 2 s, starting after item 1 of the
     producer (~1s) -> makespan near 9-10 s but never below the busy time. *)
  Alcotest.(check int) "bottleneck" 1 r.Pipeline_sim.bottleneck_index;
  Alcotest.(check bool) "at least bottleneck busy" true (r.Pipeline_sim.makespan_s >= 8.);
  Alcotest.(check bool) "at most serial" true (r.Pipeline_sim.makespan_s <= 12.);
  Alcotest.(check (float 1e-9)) "busy accounting" 8. r.Pipeline_sim.stage_busy_s.(1)

let test_pipeline_sim_guards () =
  Alcotest.(check bool) "empty rejected" true
    (try
       ignore (Pipeline_sim.simulate ~batch:1 []);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "forward producer rejected" true
    (try
       ignore
         (Pipeline_sim.simulate ~batch:1
            [ { Pipeline_sim.node = 0; items = 1; item_time_s = 1.; producers = [ 0 ] } ]);
       false
     with Invalid_argument _ -> true)

(* Fitness *)

let test_objective_parsing () =
  Alcotest.(check bool) "latency" true
    (Fitness.objective_of_string "Throughput" = Fitness.Latency);
  Alcotest.(check bool) "energy" true (Fitness.objective_of_string "power" = Fitness.Energy);
  Alcotest.(check bool) "edp" true (Fitness.objective_of_string "EDP" = Fitness.Edp);
  Alcotest.(check bool) "unknown" true
    (try
       ignore (Fitness.objective_of_string "speed");
       false
     with Invalid_argument _ -> true)

let test_group_fitness_is_sum () =
  let _, v, ctx = setup "resnet18" Config.chip_s in
  let p = eval ctx v `Greedy in
  let sum =
    List.fold_left
      (fun acc sp -> acc +. Fitness.span_fitness Fitness.Latency (Estimator.span_cost_of sp))
      0. p.Estimator.spans
  in
  Alcotest.(check (float 1e-12)) "PGF sums spans" sum
    (Fitness.group_fitness Fitness.Latency p)

let test_unit_profile_covers_units () =
  let units, v, ctx = setup "resnet18" Config.chip_s in
  let p = eval ctx v `Greedy in
  let m = Unit_gen.unit_count units in
  let costs = List.map Estimator.span_cost_of p.Estimator.spans in
  let profile = Fitness.population_profile Fitness.Latency [| costs |] ~total_units:m in
  Alcotest.(check int) "length" (m + 1) (Array.length profile);
  Alcotest.(check (float 0.)) "starts at zero" 0. profile.(0);
  (* Every unit carries a positive share, so the prefix sum rises strictly. *)
  for i = 0 to m - 1 do
    Alcotest.(check bool) "positive" true (profile.(i + 1) > profile.(i))
  done

let test_partition_scores_positive () =
  let units, v, ctx = setup "resnet18" Config.chip_s in
  let p = eval ctx v `Greedy in
  let m = Unit_gen.unit_count units in
  let costs = List.map Estimator.span_cost_of p.Estimator.spans in
  let prefix = Fitness.population_profile Fitness.Latency [| costs |] ~total_units:m in
  let scores = Fitness.partition_scores ~population_profile:prefix Fitness.Latency costs in
  Alcotest.(check int) "one per partition" (List.length p.Estimator.spans)
    (Array.length scores);
  (* With the population = this single individual, every score is 1. *)
  Array.iter (fun r -> Alcotest.(check (float 1e-9)) "self score 1" 1. r) scores

(* The profile as it was built before [Fitness.population_profile]: one
   m(x) array per individual, each added into the population mean, then
   prefix summed. *)
let reference_profile objective perfs ~total_units =
  let profile = Array.make (total_units + 1) 0. in
  let npop = float_of_int (Array.length perfs) in
  Array.iter
    (fun (perf : Estimator.perf) ->
      let m = Array.make total_units 0. in
      List.iter
        (fun (sp : Estimator.span_perf) ->
          let len = sp.Estimator.stop - sp.Estimator.start_ in
          let per_unit =
            Fitness.span_fitness objective (Estimator.span_cost_of sp) /. float_of_int len
          in
          for i = sp.Estimator.start_ to sp.Estimator.stop - 1 do
            m.(i) <- per_unit
          done)
        perf.Estimator.spans;
      Array.iteri (fun i v -> profile.(i + 1) <- profile.(i + 1) +. (v /. npop)) m)
    perfs;
  for i = 0 to total_units - 1 do
    profile.(i + 1) <- profile.(i) +. profile.(i + 1)
  done;
  profile

let prop_population_profile_bit_equal =
  let units, v, ctx = setup "resnet18" Config.chip_s in
  let m = Unit_gen.unit_count units in
  QCheck.Test.make ~name:"population profile bit-equal to per-individual sum" ~count:10
    QCheck.(pair small_int (int_range 1 24))
    (fun (seed, npop) ->
      let rng = Compass_util.Rng.create seed in
      let perfs =
        Array.init npop (fun _ ->
            Estimator.evaluate ctx ~batch:16 (Validity.random_group rng v))
      in
      List.for_all
        (fun objective ->
          let bits a = Array.map Int64.bits_of_float a in
          let spans =
            Array.map (fun p -> List.map Estimator.span_cost_of p.Estimator.spans) perfs
          in
          bits (Fitness.population_profile objective spans ~total_units:m)
          = bits (reference_profile objective perfs ~total_units:m))
        [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])

(* Span costs *)

(* The span fitness as it was computed from the full record, before the
   caches held costs. *)
let reference_span_fitness objective (sp : Estimator.span_perf) =
  let energy =
    sp.Estimator.mvm_energy_j +. sp.Estimator.vfu_energy_j +. sp.Estimator.write_energy_j
    +. sp.Estimator.bus_energy_j +. sp.Estimator.dram_energy_j
  in
  match objective with
  | Fitness.Latency -> sp.Estimator.span_s
  | Fitness.Energy -> energy
  | Fitness.Edp -> sp.Estimator.span_s *. energy
  | Fitness.Wear -> sp.Estimator.span_s +. sp.Estimator.wear_cost_s

let prop_cached_cost_fitness_bit_equal =
  let nets =
    List.map
      (fun name ->
        let units, v, ctx = setup name Config.chip_s in
        (Unit_gen.unit_count units, v, ctx))
      [ "resnet18"; "vgg16" ]
  in
  QCheck.Test.make ~name:"span fitness of a cached cost bit-equal to the record's"
    ~count:60
    QCheck.(triple (int_range 0 1) bool (pair small_nat small_nat))
    (fun (net, big_batch, (da, db)) ->
      let m, v, ctx = List.nth nets net in
      let batch = if big_batch then 16 else 1 in
      let a = da mod m in
      let b = a + 1 + (db mod (Validity.max_end v a - a)) in
      let cache = Estimator.Span_cache.create ~batch () in
      let miss = Estimator.span_cost_cached ~cache ctx ~start_:a ~stop:b in
      let hit = Estimator.span_cost_cached ~cache ctx ~start_:a ~stop:b in
      let sp = Estimator.span_perf ctx ~batch ~start_:a ~stop:b in
      List.for_all
        (fun objective ->
          let want = Int64.bits_of_float (reference_span_fitness objective sp) in
          Int64.bits_of_float (Fitness.span_fitness objective miss) = want
          && Int64.bits_of_float (Fitness.span_fitness objective hit) = want)
        [ Fitness.Latency; Fitness.Energy; Fitness.Edp; Fitness.Wear ])

(* A cached cost is one 9-word block (header, two ints, six float
   pointers) plus its six boxed floats: 21 words.  A field that keeps the
   span's full record (or any part of it) reachable from the cache would
   push a cost past this bound. *)
let test_cost_retention_bound () =
  let units, v, ctx = setup "vgg16" Config.chip_s in
  let cache = Estimator.Span_cache.create ~batch:16 () in
  for a = 0 to Unit_gen.unit_count units - 1 do
    for b = a + 1 to Validity.max_end v a do
      let c = Estimator.span_cost_cached ~cache ctx ~start_:a ~stop:b in
      let words = Obj.reachable_words (Obj.repr c) in
      if words > 21 then
        Alcotest.failf "span [%d,%d): cost reaches %d words (bound 21)" a b words
    done
  done

(* Endurance *)

(* The slot-by-slot wear walk the closed form replaced: first-fit fills a
   core's macro slots from 0, so slot [s] of core [c] is rewritten by every
   span placing more than [s] tiles on [c]. *)
let reference_endurance ~(options : Estimator.model_options) (chip : Config.chip) ~batch
    (spans : Estimator.span_perf list) =
  if not options.Estimator.charge_writes then
    {
      Estimator.macro_writes_per_batch = 0;
      writes_per_inference = 0.;
      max_writes_per_macro_per_inference = 0.;
      projected_lifetime_inferences = None;
    }
  else begin
    let nominal = chip.Config.core.Config.macros_per_core in
    let slot_writes = Array.make_matrix chip.Config.cores (max 1 nominal) 0 in
    let total = ref 0 in
    List.iter
      (fun (sp : Estimator.span_perf) ->
        Array.iteri
          (fun c used ->
            total := !total + used;
            for slot = 0 to min used nominal - 1 do
              slot_writes.(c).(slot) <- slot_writes.(c).(slot) + 1
            done)
          sp.Estimator.tiles_per_core)
      spans;
    let worst = Array.fold_left (fun acc row -> Array.fold_left max acc row) 0 slot_writes in
    let fbatch = float_of_int batch in
    let max_per_inference = float_of_int worst /. fbatch in
    {
      Estimator.macro_writes_per_batch = !total;
      writes_per_inference = float_of_int !total /. fbatch;
      max_writes_per_macro_per_inference = max_per_inference;
      projected_lifetime_inferences =
        (match Option.bind options.Estimator.faults Fault.endurance_budget with
        | Some b when max_per_inference > 0. -> Some (b /. max_per_inference)
        | _ -> None);
    }
  end

let same_endurance (a : Estimator.endurance) (b : Estimator.endurance) =
  let bits = Int64.bits_of_float in
  a.Estimator.macro_writes_per_batch = b.Estimator.macro_writes_per_batch
  && bits a.Estimator.writes_per_inference = bits b.Estimator.writes_per_inference
  && bits a.Estimator.max_writes_per_macro_per_inference
     = bits b.Estimator.max_writes_per_macro_per_inference
  && Option.map bits a.Estimator.projected_lifetime_inferences
     = Option.map bits b.Estimator.projected_lifetime_inferences

(* Placements of 1-20 spans on a chip of 1-16 cores with 1-36 macros each:
   a core may be untouched by a span, or hold more tiles than its nominal
   macro count, as fault-degraded placements do. *)
let wear_case =
  let open QCheck.Gen in
  let gen =
    int_range 1 16 >>= fun cores ->
    int_range 1 36 >>= fun macros ->
    let tiles = frequency [ (2, return 0); (3, int_range 1 macros); (1, int_range macros (3 * macros)) ] in
    list_size (int_range 1 20) (array_size (return cores) tiles) >>= fun placements ->
    int_range 1 64 >>= fun batch ->
    bool >>= fun charge_writes ->
    opt (float_range 1. 1e9) >>= fun budget ->
    return (cores, macros, placements, batch, charge_writes, budget)
  in
  let print (cores, macros, placements, batch, charge_writes, budget) =
    Printf.sprintf "cores %d, macros %d, batch %d, charge %b, budget %s, tiles %s" cores
      macros batch charge_writes
      (match budget with None -> "none" | Some b -> Printf.sprintf "%h" b)
      (String.concat " | "
         (List.map
            (fun a -> String.concat "," (Array.to_list (Array.map string_of_int a)))
            placements))
  in
  QCheck.make ~print gen

let prop_endurance_closed_form =
  let units, v, ctx = setup "lenet5" Config.chip_s in
  let template = List.hd (eval ctx v `Greedy).Estimator.spans in
  QCheck.Test.make ~name:"closed-form endurance equals the slot walk" ~count:300 wear_case
    (fun (cores, macros, placements, batch, charge_writes, budget) ->
      let chip =
        {
          Config.chip_s with
          Config.cores;
          core = { Config.chip_s.Config.core with Config.macros_per_core = macros };
        }
      in
      let ctx = Dataflow.context { units with Unit_gen.chip } in
      let faults =
        Option.map
          (fun endurance_budget ->
            Fault.make ~endurance_budget (Array.make cores Fault.Healthy))
          budget
      in
      let options = { Estimator.default_options with Estimator.charge_writes; faults } in
      let spans =
        List.map (fun tiles -> { template with Estimator.tiles_per_core = tiles }) placements
      in
      let perf = Estimator.combine ~options ctx ~batch spans in
      same_endurance perf.Estimator.endurance
        (reference_endurance ~options chip ~batch spans))

(* Property: estimated latency monotone under merge (fewer write phases
   never hurt when IO is free... not universally true), so instead check
   robustness: random valid groups always produce finite positive values. *)

let prop_random_groups_finite =
  QCheck.Test.make ~name:"random groups evaluate to finite values" ~count:30
    QCheck.small_int (fun seed ->
      let _, v, ctx = setup "resnet18" Config.chip_s in
      let g = Validity.random_group (Compass_util.Rng.create seed) v in
      let p = Estimator.evaluate ctx ~batch:16 g in
      let ok x = Float.is_finite x && x > 0. in
      ok p.Estimator.batch_latency_s && ok p.Estimator.energy_j && ok p.Estimator.edp_j_s)

let () =
  Alcotest.run "estimator"
    [
      ( "latency",
        [
          Alcotest.test_case "positive outputs" `Quick test_positive_outputs;
          Alcotest.test_case "monotone in batch" `Quick test_latency_monotone_in_batch;
          Alcotest.test_case "overlap bounds" `Quick
            test_group_latency_sums_spans_with_overlap;
          Alcotest.test_case "span cache consistent" `Quick test_span_cache_consistency;
          Alcotest.test_case "span cache brand mismatch" `Quick
            test_span_cache_brand_mismatch;
          Alcotest.test_case "span cache options respected" `Quick
            test_span_cache_options_respected;
          Alcotest.test_case "span cache shared + merge" `Quick
            test_span_cache_shared_and_merge;
          Alcotest.test_case "span cache hit allocates nothing" `Quick
            test_span_cache_hit_allocates_nothing;
          Alcotest.test_case "write time bound" `Quick test_write_time_scales_with_weights;
          Alcotest.test_case "bottlenecks positive" `Quick
            test_more_cores_not_slower_bottleneck;
          Alcotest.test_case "io behaviour" `Quick test_io_s_zero_for_no_io;
          Alcotest.test_case "invalid args" `Quick test_invalid_args;
          Alcotest.test_case "model options" `Quick test_model_options;
          Alcotest.test_case "pipeline sim agreement" `Quick test_pipeline_sim_agreement;
          Alcotest.test_case "pipeline sim basics" `Quick test_pipeline_sim_basics;
          Alcotest.test_case "pipeline sim guards" `Quick test_pipeline_sim_guards;
          QCheck_alcotest.to_alcotest prop_random_groups_finite;
        ] );
      ( "energy",
        [
          Alcotest.test_case "per-sample amortization" `Quick
            test_energy_per_sample_decreases_with_batch;
          Alcotest.test_case "unique bytes once" `Quick test_unique_bytes_cover_model_once;
          Alcotest.test_case "programmed >= unique" `Quick test_programmed_at_least_unique;
          Alcotest.test_case "edp definition" `Quick test_edp_definition;
          Alcotest.test_case "components sum" `Quick test_energy_components_sum;
        ] );
      ( "fitness",
        [
          Alcotest.test_case "objective parsing" `Quick test_objective_parsing;
          Alcotest.test_case "PGF sums spans" `Quick test_group_fitness_is_sum;
          Alcotest.test_case "unit profile covers" `Quick test_unit_profile_covers_units;
          Alcotest.test_case "partition scores" `Quick test_partition_scores_positive;
          QCheck_alcotest.to_alcotest prop_population_profile_bit_equal;
          QCheck_alcotest.to_alcotest prop_cached_cost_fitness_bit_equal;
          Alcotest.test_case "cost retention bound" `Quick test_cost_retention_bound;
        ] );
      ("endurance", [ QCheck_alcotest.to_alcotest prop_endurance_closed_form ]);
    ]
