(** Exact partitioning by dynamic programming over the valid-span DAG.

    The GA (Algorithm 1) searches the space of valid partition groups
    stochastically; this module solves the same problem exactly for the
    separable objectives.  A group's batch latency is

    [sum over spans (exposed_write + max(compute, io))]

    where the exposed write of a span depends only on its {e predecessor}
    span (the write fetch hides under the predecessor's DRAM-idle compute).
    That makes latency a sum of edge costs over chains in the DAG whose
    nodes are cut positions and whose edges are valid spans — so a
    shortest-path DP with one state per valid span (the state remembers the
    incoming span) finds the latency-optimal group after evaluating each
    valid span exactly once.  Energy is [dynamic + static_power x latency],
    also edge-separable; the wear surrogate is a plain span sum.  EDP is a
    product of two chain sums and is not separable: the DP instead returns
    the better of the latency- and energy-optimal groups together with the
    certified lower bound [(E_min / batch) x L_min].

    Against the GA this trades stochastic group sampling (hundreds to
    thousands of full-group evaluations) for a single sweep over the valid
    spans plus one float relaxation per pair of chained spans — at most
    the sum over positions [a] of (valid spans ending at [a]) x (valid
    spans starting at [a]) — in memory O(valid spans), and returns a
    certificate. *)

type stats = {
  valid_spans : int;  (** States of the DAG (size of the validity map). *)
  spans_evaluated : int;
      (** Spans newly run through the estimator (cache misses); at most
          [valid_spans], fewer when a warm cache is supplied. *)
  edges_relaxed : int;  (** DP transitions considered. *)
  group_evaluations : int;
      (** Full-group estimator evaluations (1; 2 for {!Fitness.Edp} when
          the two candidate chains differ).  The GA's [evaluations] counter
          is the comparable number. *)
}

type result = {
  objective : Fitness.objective;
  group : Partition.t;  (** The optimal (or incumbent, for EDP) group. *)
  perf : Estimator.perf;  (** Full estimator evaluation of [group]. *)
  value : float;  (** [objective_value objective perf]. *)
  lower_bound : float;
      (** Certified lower bound on the objective value of {e every} valid
          group.  Equals [value] when [exact]. *)
  exact : bool;
      (** Whether [value] is provably minimal ([Latency], [Energy], [Wear];
          up to floating-point rounding for [Energy]).  For [Edp] only when
          the incumbent happens to meet the bound. *)
  budget_exhausted : bool;
      (** True iff a {!Compass_util.Budget} expired mid-sweep; [group] is
          then the greedy anytime incumbent, [exact] is false and
          [lower_bound] degrades to the trivial 0. *)
  stats : stats;
}

val objective_value : Fitness.objective -> Estimator.perf -> float
(** The scalar each objective minimizes over whole groups: batch latency,
    batch energy, EDP, or the wear surrogate ({!Fitness.group_fitness}
    [Wear]).  Note this differs from the GA's internal fitness for
    [Latency]/[Energy], which sum per-span values without inter-span write
    overlap; comparisons between the DP and the GA should use this. *)

val optimize :
  ?objective:Fitness.objective ->
  ?options:Estimator.model_options ->
  ?cache:Estimator.Span_cache.t ->
  ?budget:Compass_util.Budget.t ->
  Dataflow.ctx ->
  Validity.t ->
  batch:int ->
  result
(** Run the DP.  [?cache] supplies a warm span cache (it is read and
    extended); its brand must match [batch] and [options] or
    [Invalid_argument] is raised.  Also raises on [batch < 1] or when the
    validity map does not match [ctx]'s decomposition.  Deterministic: ties
    keep the first (smallest-position) chain found.

    [?budget] bounds the sweep: the deadline is polled before every span
    evaluation, and on expiry the result degrades to the greedy anytime
    incumbent with [budget_exhausted] set (see {!type-result}) instead of
    raising or overrunning. *)

val pp : Format.formatter -> result -> unit
