(* Differential metric tests: every counter the observability layer
   reports must equal the same quantity recomputed independently from the
   plan, program or controller statistics — the instrumentation may only
   observe, never approximate. *)

open Compass_core
open Compass_util

let small_nets = [ "lenet5"; "tiny_mlp"; "tiny_resnet" ]

let with_metrics f =
  Metrics.reset ();
  Metrics.enable ();
  Fun.protect
    ~finally:(fun () ->
      Metrics.disable ();
      Metrics.reset ())
    f

let metric name = Option.value ~default:0 (Metrics.find_int name)

let test_sim_per_core_instruction_counts () =
  (* Each instruction of each program executes exactly once (dead cores
     included), so the per-core counters must equal the program lengths
     and their sum the total. *)
  List.iter
    (fun name ->
      let model = Compass_nn.Models.by_name name in
      let chip = Compass_arch.Config.chip_s in
      let plan = Compiler.compile ~model ~chip ~batch:4 Compiler.Greedy in
      let sched = Compiler.schedule plan in
      with_metrics (fun () ->
          ignore (Scheduler.simulate plan.Compiler.ctx sched);
          let total = ref 0 in
          List.iter
            (fun p ->
              let expected = Compass_isa.Program.length p in
              total := !total + expected;
              Alcotest.(check int)
                (Printf.sprintf "%s core %d" name p.Compass_isa.Program.core_id)
                expected
                (metric
                   (Printf.sprintf "sim.core.%d.instrs" p.Compass_isa.Program.core_id)))
            sched.Scheduler.programs;
          Alcotest.(check int) (name ^ " total") !total (metric "sim.instrs");
          (* Per-kind counters against the static instruction mix. *)
          List.iter
            (fun (kind, n) ->
              Alcotest.(check int)
                (Printf.sprintf "%s mix %s" name kind)
                n
                (metric ("sim.instr." ^ kind)))
            (Compass_isa.Program.instruction_mix sched.Scheduler.programs)))
    small_nets

let test_estimator_cache_counters () =
  (* On a fresh cache: misses = distinct spans in the cache afterwards,
     hits + misses = one lookup per span of every evaluated group, and
     group_evaluations = number of evaluate calls. *)
  List.iter
    (fun name ->
      let model = Compass_nn.Models.by_name name in
      let chip = Compass_arch.Config.chip_s in
      let units = Unit_gen.generate model chip in
      let ctx = Dataflow.context units in
      let validity = Validity.build units in
      let groups =
        let gs = [ Baselines.greedy validity; Baselines.layerwise validity ] in
        gs @ gs
      in
      with_metrics (fun () ->
          let cache = Estimator.Span_cache.create ~batch:4 () in
          List.iter
            (fun g -> ignore (Estimator.evaluate_cached ~cache ctx ~batch:4 g))
            groups;
          let lookups =
            List.fold_left (fun acc g -> acc + Partition.partition_count g) 0 groups
          in
          let hits = metric "estimator.span_cache.hits" in
          let misses = metric "estimator.span_cache.misses" in
          Alcotest.(check int)
            (name ^ " misses = distinct spans")
            (Estimator.Span_cache.length cache)
            misses;
          Alcotest.(check int) (name ^ " hits + misses = lookups") lookups (hits + misses);
          Alcotest.(check int)
            (name ^ " group evaluations")
            (List.length groups)
            (metric "estimator.group_evaluations")))
    small_nets

let test_dram_counters_match_stats () =
  (* The controller's metric flush must agree field-for-field with the
     stats record it returns. *)
  let records =
    List.init 64 (fun i ->
        if i mod 3 = 0 then
          Compass_dram.Trace.write ~addr:(i * 4096) ~bytes:2048 ()
        else Compass_dram.Trace.read ~addr:(i * 1536) ~bytes:1024 ())
  in
  with_metrics (fun () ->
      let stats = Compass_dram.Dram.simulate records in
      let open Compass_dram.Controller in
      List.iter
        (fun (metric_name, expected) ->
          Alcotest.(check int) metric_name expected (metric metric_name))
        [
          ("dram.reads", stats.reads);
          ("dram.writes", stats.writes);
          ("dram.row_hits", stats.row_hits);
          ("dram.row_misses", stats.row_misses);
          ("dram.activates", stats.activates);
          ("dram.refreshes", stats.refreshes);
          ("dram.bus_stall_cycles", stats.bus_stall_cycles);
        ];
      (* Every burst is either a hit or a miss, and every burst is either
         a read or a write. *)
      Alcotest.(check int) "bursts partition into hits and misses"
        (stats.reads + stats.writes)
        (stats.row_hits + stats.row_misses))

let test_full_compile_catalogue () =
  (* An instrumented end-to-end compile + measure populates the documented
     metric families with mutually consistent values. *)
  let model = Compass_nn.Models.by_name "lenet5" in
  let chip = Compass_arch.Config.chip_s in
  with_metrics (fun () ->
      let plan =
        Compiler.compile
          ~ga_params:{ Ga.quick_params with Ga.seed = 3 }
          ~model ~chip ~batch:4 Compiler.Compass
      in
      ignore (Compiler.measure plan);
      let ga = Option.get plan.Compiler.ga in
      Alcotest.(check int) "ga.generations" ga.Ga.generations_run (metric "ga.generations");
      Alcotest.(check int) "ga.fitness_evaluations" ga.Ga.evaluations
        (metric "ga.fitness_evaluations");
      (match List.assoc_opt "ga.best_fitness" (Metrics.snapshot ()) with
      | Some (Metrics.Float v) ->
        Alcotest.(check (float 0.)) "ga.best_fitness" ga.Ga.best.Ga.fitness v
      | _ -> Alcotest.fail "ga.best_fitness missing");
      Alcotest.(check bool) "sim instructions counted" true (metric "sim.instrs" > 0);
      Alcotest.(check bool) "dram bursts counted" true
        (metric "dram.reads" + metric "dram.writes" > 0))

(* The GA publishes [estimator.group_evaluations] once per evaluation
   wave and the span-cache lookups once per merged cache; the totals are
   the ones per-candidate publication gave (pinned from it). *)
let test_ga_counters_pinned () =
  let model = Compass_nn.Models.by_name "resnet18" in
  let chip = Compass_arch.Config.chip_s in
  List.iter
    (fun jobs ->
      with_metrics (fun () ->
          let plan =
            Compiler.compile
              ~ga_params:{ Ga.quick_params with Ga.seed = 3; jobs }
              ~jobs ~model ~chip ~batch:16 Compiler.Compass
          in
          let label = Printf.sprintf "j=%d " jobs in
          Alcotest.(check int) (label ^ "ga evaluations") 204
            (Option.get plan.Compiler.ga).Ga.evaluations;
          (* One per GA candidate, plus the compile's final evaluation. *)
          Alcotest.(check int) (label ^ "group evaluations") 205
            (metric "estimator.group_evaluations");
          let hits = metric "estimator.span_cache.hits" in
          let misses = metric "estimator.span_cache.misses" in
          Alcotest.(check int) (label ^ "lookups") 1550 (hits + misses);
          (* Which domain misses first depends on scheduling above one job. *)
          if jobs = 1 then begin
            Alcotest.(check int) "hits" 1131 hits;
            Alcotest.(check int) "misses" 419 misses
          end))
    [ 1; 2 ]

let test_dp_counters_match_stats () =
  let model = Compass_nn.Models.by_name "lenet5" in
  let chip = Compass_arch.Config.chip_s in
  let units = Unit_gen.generate model chip in
  let ctx = Dataflow.context units in
  let validity = Validity.build units in
  with_metrics (fun () ->
      let r = Optimal.optimize ctx validity ~batch:4 in
      let s = r.Optimal.stats in
      Alcotest.(check int) "dp.valid_spans" s.Optimal.valid_spans
        (metric "dp.valid_spans");
      Alcotest.(check int) "dp.spans_evaluated" s.Optimal.spans_evaluated
        (metric "dp.spans_evaluated");
      Alcotest.(check int) "dp.edges_relaxed" s.Optimal.edges_relaxed
        (metric "dp.edges_relaxed");
      Alcotest.(check int) "dp.group_evaluations" s.Optimal.group_evaluations
        (metric "dp.group_evaluations"))

(* Latency histograms: power-of-two buckets, so a quantile estimate is
   an upper bound within a factor of two of the true order statistic,
   and bucket-count merging is associative like counters — worker-count
   independent by construction. *)
let test_histogram_quantiles () =
  with_metrics (fun () ->
      (* 100 samples 0.001..0.100: true p50 = 0.050, true p99 = 0.099. *)
      for i = 1 to 100 do
        Metrics.observe "lat" (float_of_int i /. 1000.)
      done;
      let quantile q =
        match Metrics.quantile "lat" q with
        | Some v -> v
        | None -> Alcotest.fail "histogram missing"
      in
      let in_bound ~true_v got =
        got >= true_v && got <= 2. *. true_v
      in
      Alcotest.(check bool) "p50 within a factor of two" true
        (in_bound ~true_v:0.050 (quantile 0.5));
      Alcotest.(check bool) "p99 within a factor of two" true
        (in_bound ~true_v:0.099 (quantile 0.99));
      Alcotest.(check bool) "quantiles monotone" true
        (quantile 0.5 <= quantile 0.99);
      Alcotest.(check int) "count surfaces" 100 (metric "lat.count");
      (* Snapshot carries derived p50/p99 rows. *)
      let snap = Metrics.snapshot () in
      Alcotest.(check bool) "snapshot has p50 and p99" true
        (List.mem_assoc "lat.p50" snap && List.mem_assoc "lat.p99" snap);
      (* Bad quantiles and type clashes are loud. *)
      (match Metrics.quantile "lat" 1.5 with
      | _ -> Alcotest.fail "q > 1 accepted"
      | exception Invalid_argument _ -> ());
      match Metrics.incr "lat" with
      | _ -> Alcotest.fail "incr on a histogram accepted"
      | exception Invalid_argument _ -> ())

let test_histogram_merges_across_domains () =
  (* Observations from pool workers merge exactly like counters: total
     count equals the sum, independent of the worker count. *)
  let counts =
    List.map
      (fun jobs ->
        with_metrics (fun () ->
            Compass_util.Pool.with_pool ~jobs (fun p ->
                ignore
                  (Compass_util.Pool.map p
                     (fun i ->
                       Metrics.observe "work" (float_of_int (1 + (i mod 7)));
                       i)
                     (Array.init 64 Fun.id)));
            metric "work.count"))
      [ 1; 4 ]
  in
  Alcotest.(check (list int)) "count independent of workers" [ 64; 64 ] counts

(* Counting must not allocate: the search publishes its counters on every
   evaluation wave.  [minor_words] boxes its result, so the cost of one
   bare reading pair is subtracted. *)
let minor_words_of f =
  let calibrate = Gc.minor_words () in
  let bare = Gc.minor_words () -. calibrate in
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before -. bare

let test_counting_allocates_nothing () =
  let count () =
    for i = 1 to 1000 do
      Metrics.incr "alloc.incr";
      Metrics.add "alloc.add" i
    done
  in
  Alcotest.(check (float 0.)) "disabled" 0. (minor_words_of count);
  with_metrics (fun () ->
      (* The first calls create the counters; every later one is a hit. *)
      count ();
      Alcotest.(check (float 0.)) "enabled, 1000 hits each" 0. (minor_words_of count);
      Alcotest.(check int) "incr counted" 2000 (metric "alloc.incr");
      Alcotest.(check int) "add counted" 1001000 (metric "alloc.add"))

let () =
  Alcotest.run "metrics"
    [
      ( "differential",
        [
          Alcotest.test_case "sim per-core instruction counts" `Quick
            test_sim_per_core_instruction_counts;
          Alcotest.test_case "estimator cache counters" `Quick
            test_estimator_cache_counters;
          Alcotest.test_case "dram counters match stats" `Quick
            test_dram_counters_match_stats;
          Alcotest.test_case "dp counters match stats" `Quick
            test_dp_counters_match_stats;
          Alcotest.test_case "full compile catalogue" `Quick test_full_compile_catalogue;
          Alcotest.test_case "ga counters pinned" `Quick test_ga_counters_pinned;
        ] );
      ( "allocation",
        [ Alcotest.test_case "counting allocates nothing" `Quick test_counting_allocates_nothing ]
      );
      ( "histogram",
        [
          Alcotest.test_case "quantiles bounded" `Quick test_histogram_quantiles;
          Alcotest.test_case "merges across domains" `Quick
            test_histogram_merges_across_domains;
        ] );
    ]
