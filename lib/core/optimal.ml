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

(* The valid-span DAG with one state per valid span: state [a, b) sits at
   [first.(a) + b - a - 1], and the starts [p] of the valid spans [p, a)
   ending at [a] are [into.(into_first.(a))] up to [into_first.(a + 1)],
   ascending.  Both are built in O(valid spans). *)
type states = {
  first : int array;  (* [m + 1] entries; [first.(m)] counts the states *)
  into_first : int array;  (* [m + 2] entries *)
  into : int array;
}

let state_count st = st.first.(Array.length st.first - 1)
let state first a b = first.(a) + b - a - 1

let states validity =
  let m = Validity.size validity in
  let first = Array.make (m + 1) 0 in
  let into_first = Array.make (m + 2) 0 in
  for a = 0 to m - 1 do
    let max_end = Validity.max_end validity a in
    first.(a + 1) <- first.(a) + max_end - a;
    for b = a + 1 to max_end do
      into_first.(b + 1) <- into_first.(b + 1) + 1
    done
  done;
  for b = 1 to m + 1 do
    into_first.(b) <- into_first.(b - 1) + into_first.(b)
  done;
  let into = Array.make first.(m) 0 in
  let fill = Array.sub into_first 0 (m + 1) in
  for p = 0 to m - 1 do
    for b = p + 1 to Validity.max_end validity p do
      into.(fill.(b)) <- p;
      fill.(b) <- fill.(b) + 1
    done
  done;
  { first; into_first; into }

(* [Estimator.fmax]: [Stdlib.max] on floats, defined here so that it
   inlines into the edge loop and its operands stay unboxed. *)
let fmax (a : float) b = if a >= b then a else b

(* What an edge costs.  Batch latency is [Estimator.combine]'s sum of
   [exposed_write + max(compute, io)] over the chain, where the exposed
   write hides under the predecessor span's DRAM-idle compute.  Batch
   energy is the dynamic energies plus static power x batch latency, so
   each edge is charged its span's dynamic energy plus the static energy
   of the latency it adds.  The wear surrogate is a plain span sum.  Both
   read the span's [Fitness.span_fitness], as the GA does. *)
type edge_objective =
  | Latency
  | Energy of float  (* chip static power, W *)
  | Wear

(* Shortest path over the states: state [a, b) = "the chain's last span is
   [a, b)".  The incoming span is part of the state because the
   write-overlap credit of [b, c) depends on the idle time of its
   predecessor.  Starts are processed in ascending order: every chain
   ending at [a] is final by then, so each reached predecessor's span is
   fetched once and its best value and idle time are relaxed into every
   valid [a, b).  Each state sees the root edge first, then predecessors in
   ascending order, and keeps the first minimum, so the result is
   deterministic.  The edge values use [Estimator.combine]'s exact
   expressions and association, so a path sums to the bit-identical value
   the estimator reports for the reconstructed group. *)
let run_dp st ~perf_of ~write_overlap objective =
  let { first; into_first; into } = st in
  let m = Array.length first - 1 in
  let n = state_count st in
  let best = Array.make n infinity in
  let parent = Array.make n (-1) in
  (* The reached predecessors of the current start, ascending: fewer
     than [m].  Start 0 has one, the root: position -1, value 0, no
     overlap credit. *)
  let pred_start = Array.make m (-1) in
  let pred_best = Array.make m 0. in
  let pred_idle = Array.make m 0. in
  let edges = ref 0 in
  for a = 0 to m - 1 do
    let live = ref (if a = 0 then 1 else 0) in
    for k = into_first.(a) to into_first.(a + 1) - 1 do
      let p = into.(k) in
      let v = best.(state first p a) in
      if v < infinity then begin
        let c : Estimator.span_cost = perf_of p a in
        pred_start.(!live) <- p;
        pred_best.(!live) <- v;
        pred_idle.(!live) <-
          fmax 0.
            (fmax c.Estimator.compute_s c.Estimator.io_s -. c.Estimator.io_s);
        incr live
      end
    done;
    let overlap = write_overlap && a > 0 in
    for b = a + 1 to a + first.(a + 1) - first.(a) do
      let s = state first a b in
      let sp : Estimator.span_cost = perf_of a b in
      let write = sp.Estimator.write_s in
      let busy = fmax sp.Estimator.compute_s sp.Estimator.io_s in
      let fitness =
        match objective with
        | Latency -> 0.
        | Energy _ -> Fitness.span_fitness Fitness.Energy sp
        | Wear -> Fitness.span_fitness Fitness.Wear sp
      in
      for k = 0 to !live - 1 do
        let exposed =
          if overlap then fmax 0. (write -. pred_idle.(k)) else write
        in
        let v =
          match objective with
          | Latency -> pred_best.(k) +. exposed +. busy
          | Energy static_power_w ->
            pred_best.(k) +. fitness +. (static_power_w *. (0. +. exposed +. busy))
          | Wear -> pred_best.(k) +. fitness
        in
        incr edges;
        if v < best.(s) then begin
          best.(s) <- v;
          parent.(s) <- pred_start.(k)
        end
      done
    done
  done;
  (* Smallest start among the minima over the states [a, m): scan upward
     with strict improvement. *)
  let final = ref (-1) in
  for k = into_first.(m) to into_first.(m + 1) - 1 do
    let a = into.(k) in
    let v = best.(state first a m) in
    if v < infinity && (!final < 0 || v < best.(state first !final m)) then final := a
  done;
  if !final < 0 then invalid_arg "Optimal.optimize: no valid chain covers the units";
  let rec back a b acc =
    let acc = { Partition.start_ = a; Partition.stop = b } :: acc in
    let p = parent.(state first a b) in
    if p < 0 then acc else back p a acc
  in
  let group = Partition.of_spans (back !final m []) in
  (best.(state first !final m), group, !edges)

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
  let energy = Energy chip.Compass_arch.Config.chip_power_w in
  let write_overlap = options.Estimator.write_overlap in
  let st = states validity in
  let dp objective =
    Compass_util.Trace.with_span "dp.sweep" @@ fun () ->
    run_dp st ~perf_of ~write_overlap objective
  in
  let finish ?(budget_exhausted = false) ~edges ~group_evaluations ~value ~lower_bound
      ~exact group perf =
    let valid_spans = state_count st in
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
    let value, group, edges = dp Latency in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value:perf.Estimator.batch_latency_s
      ~lower_bound:value ~exact:true group perf
  | Fitness.Energy ->
    let value, group, edges = dp energy in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value:perf.Estimator.energy_j
      ~lower_bound:value ~exact:true group perf
  | Fitness.Wear ->
    let value, group, edges = dp Wear in
    let perf = Estimator.evaluate_cached ~cache ctx ~batch group in
    finish ~edges ~group_evaluations:1 ~value ~lower_bound:value ~exact:true group perf
  | Fitness.Edp ->
    (* EDP multiplies two chain sums, so it is not edge-separable.  Both
       factors are: the latency-optimal and energy-optimal chains bound any
       group's EDP from below by (E_min / batch) x L_min, and the better of
       the two optima is the reported incumbent. *)
    let lat_min, lat_group, lat_edges = dp Latency in
    let en_min, en_group, en_edges = dp energy in
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
