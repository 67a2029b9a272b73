type stats = {
  valid_spans : int;
  spans_evaluated : int;
  edges_relaxed : int;
  group_evaluations : int;
}

type result = {
  objective : Fitness.objective;
  group : Partition.t;
  perf : Estimator.perf;
  value : float;
  lower_bound : float;
  exact : bool;
  budget_exhausted : bool;
  stats : stats;
}

(* Raised inside the span sweep when the budget expires; caught by
   [optimize], which falls back to the greedy anytime incumbent. *)
exception Expired

let objective_value objective (perf : Estimator.perf) =
  match objective with
  | Fitness.Latency -> perf.Estimator.batch_latency_s
  | Fitness.Energy -> perf.Estimator.energy_j
  | Fitness.Edp -> perf.Estimator.edp_j_s
  | Fitness.Wear -> Fitness.group_fitness Fitness.Wear perf

(* Accumulated batch latency after appending [sp] to a chain whose last
   span is [prev] — the exact expression (and association) of
   [Estimator.combine], so a DP path sums to the bit-identical
   [batch_latency_s] the estimator reports for the reconstructed group. *)
let extend_latency ~write_overlap acc prev (sp : Estimator.span_cost) =
  let exposed_write =
    match prev with
    | None -> sp.Estimator.write_s
    | Some (p : Estimator.span_cost) when write_overlap ->
      let idle =
        max 0. (max p.Estimator.compute_s p.Estimator.io_s -. p.Estimator.io_s)
      in
      max 0. (sp.Estimator.write_s -. idle)
    | Some _ -> sp.Estimator.write_s
  in
  acc +. exposed_write +. max sp.Estimator.compute_s sp.Estimator.io_s

(* Batch energy = sum of per-span dynamic energies + static power x batch
   latency; the latency is edge-separable (above), so energy is too:
   charge each edge its dynamic energy plus the static energy of the
   latency it adds. *)
let extend_energy ~write_overlap ~static_power_w acc prev (sp : Estimator.span_cost) =
  let dt = extend_latency ~write_overlap 0. prev sp in
  acc +. Fitness.span_fitness Fitness.Energy sp +. (static_power_w *. dt)

(* The wear surrogate the GA minimizes is a plain span sum, accumulated in
   the same order [Fitness.group_fitness] folds it. *)
let extend_wear acc _prev (sp : Estimator.span_cost) =
  acc +. Fitness.span_fitness Fitness.Wear sp

(* Shortest path over the valid-span DAG with one state per valid span:
   state (a, b) = "the chain's last span is [a, b)".  The incoming span is
   part of the state because the write-overlap credit of span [b, c)
   depends on the idle time of its predecessor.  Starts are processed in
   ascending order: every chain ending at [a] is final by then, so its
   last span is fetched once and relaxed into every valid [a, b).  Each
   state sees the root edge first, then predecessors in ascending order,
   and keeps the first minimum, so the result is deterministic. *)
let run_dp ~m ~validity ~perf_of ~extend =
  let best = Array.make_matrix (m + 1) (m + 1) infinity in
  let parent = Array.make_matrix (m + 1) (m + 1) min_int in
  let edges = ref 0 in
  let relax a b p v =
    incr edges;
    if v < best.(a).(b) then begin
      best.(a).(b) <- v;
      parent.(a).(b) <- p
    end
  in
  for a = 0 to m - 1 do
    let preds = ref [] in
    for p = a - 1 downto 0 do
      if best.(p).(a) < infinity then preds := (p, Some (perf_of p a)) :: !preds
    done;
    for b = a + 1 to Validity.max_end validity a do
      let sp = perf_of a b in
      if a = 0 then relax a b (-1) (extend 0. None sp);
      List.iter (fun (p, prev) -> relax a b p (extend best.(p).(a) prev sp)) !preds
    done
  done;
  (* Smallest start among the minima: scan upward with strict improvement. *)
  let final =
    let best_a = ref (-1) in
    for a = 0 to m - 1 do
      if best.(a).(m) < infinity && (!best_a < 0 || best.(a).(m) < best.(!best_a).(m))
      then best_a := a
    done;
    !best_a
  in
  if final < 0 then invalid_arg "Optimal.optimize: no valid chain covers the units";
  let rec back a b acc =
    let acc = { Partition.start_ = a; Partition.stop = b } :: acc in
    let p = parent.(a).(b) in
    if p < 0 then acc else back p a acc
  in
  let group = Partition.of_spans (back final m []) in
  (best.(final).(m), group, !edges)

let count_valid_spans validity ~m =
  let n = ref 0 in
  for a = 0 to m - 1 do
    n := !n + (Validity.max_end validity a - a)
  done;
  !n

let optimize ?(objective = Fitness.Latency) ?(options = Estimator.default_options)
    ?cache ?budget ctx validity ~batch =
  if batch < 1 then invalid_arg "Optimal.optimize: batch < 1";
  let m = Validity.size validity in
  if m <> Unit_gen.unit_count (Dataflow.units ctx) then
    invalid_arg "Optimal.optimize: validity map does not match the decomposition";
  let cache =
    match cache with
    | None -> Estimator.Span_cache.create ~options ~batch ()
    | Some c ->
      if Estimator.Span_cache.batch c <> batch then
        invalid_arg
          (Printf.sprintf "Optimal.optimize: cache built for batch %d, called with %d"
             (Estimator.Span_cache.batch c) batch);
      if Estimator.Span_cache.options c <> options then
        invalid_arg "Optimal.optimize: cache options mismatch";
      c
  in
  let spans_before = Estimator.Span_cache.length cache in
  let check_budget () =
    match budget with
    | Some b when Compass_util.Budget.expired b -> raise Expired
    | Some _ | None -> ()
  in
  let perf_of a b =
    check_budget ();
    Estimator.span_cost_cached ~cache ctx ~start_:a ~stop:b
  in
  let chip = (Dataflow.units ctx).Unit_gen.chip in
  let static_power_w = chip.Compass_arch.Config.chip_power_w in
  let write_overlap = options.Estimator.write_overlap in
  let dp extend =
    Compass_util.Trace.with_span "dp.sweep" @@ fun () ->
    run_dp ~m ~validity ~perf_of ~extend
  in
  let finish ?(budget_exhausted = false) ~edges ~group_evaluations ~value ~lower_bound
      ~exact group perf =
    let valid_spans = count_valid_spans validity ~m in
    let spans_evaluated = Estimator.Span_cache.length cache - spans_before in
    Compass_util.Metrics.add "dp.valid_spans" valid_spans;
    Compass_util.Metrics.add "dp.spans_evaluated" spans_evaluated;
    Compass_util.Metrics.add "dp.edges_relaxed" edges;
    Compass_util.Metrics.add "dp.group_evaluations" group_evaluations;
    {
      objective;
      group;
      perf;
      value;
      lower_bound;
      exact;
      budget_exhausted;
      stats = { valid_spans; spans_evaluated; edges_relaxed = edges; group_evaluations };
    }
  in
  try
    match objective with
  | Fitness.Latency ->
    let value, group, edges = dp (extend_latency ~write_overlap) in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value:perf.Estimator.batch_latency_s
      ~lower_bound:value ~exact:true group perf
  | Fitness.Energy ->
    let value, group, edges = dp (extend_energy ~write_overlap ~static_power_w) in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value:perf.Estimator.energy_j
      ~lower_bound:value ~exact:true group perf
  | Fitness.Wear ->
    let value, group, edges = dp extend_wear in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value ~lower_bound:value ~exact:true group perf
  | Fitness.Edp ->
    (* EDP multiplies two chain sums, so it is not edge-separable.  Both
       factors are: the latency-optimal and energy-optimal chains bound any
       group's EDP from below by (E_min / batch) x L_min, and the better of
       the two optima is the reported incumbent. *)
    let lat_min, lat_group, lat_edges = dp (extend_latency ~write_overlap) in
    let en_min, en_group, en_edges = dp (extend_energy ~write_overlap ~static_power_w) in
    let lat_perf = Estimator.evaluate_cached ~cache ctx ~batch lat_group in
    let en_perf =
      if Partition.equal lat_group en_group then lat_perf
      else Estimator.evaluate_cached ~cache ctx ~batch en_group
    in
    let group, perf =
      if en_perf.Estimator.edp_j_s < lat_perf.Estimator.edp_j_s then (en_group, en_perf)
      else (lat_group, lat_perf)
    in
    let lower_bound = en_min /. float_of_int batch *. lat_min in
    let value = perf.Estimator.edp_j_s in
    finish ~edges:(lat_edges + en_edges)
      ~group_evaluations:(if Partition.equal lat_group en_group then 1 else 2)
      ~value ~lower_bound
      ~exact:(value <= lower_bound *. (1. +. 1e-9))
      group perf
  with Expired ->
    (* Anytime fallback.  No chain reaches the final position until the
       last DP row completes, so a cut-short sweep has no partial optimum
       to return; the greedy maximal-step cover is the best-so-far
       incumbent instead — always valid, never certified.  The trivial
       bound 0 keeps [lower_bound]'s contract ([value >= lower_bound])
       without claiming anything. *)
    let group = Baselines.greedy validity in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~budget_exhausted:true ~edges:0 ~group_evaluations:1
      ~value:(objective_value objective perf) ~lower_bound:0. ~exact:false group perf

let pp ppf r =
  Format.fprintf ppf
    "optimal(%s): %d partitions, value %.6g (lower bound %.6g, %s)@.  %d valid spans, %d evaluated, %d edges, %d group evaluation(s)@."
    (Fitness.objective_to_string r.objective)
    (Partition.partition_count r.group)
    r.value r.lower_bound
    (if r.exact then "exact" else "bound")
    r.stats.valid_spans r.stats.spans_evaluated r.stats.edges_relaxed
    r.stats.group_evaluations
