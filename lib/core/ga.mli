(** The COMPASS genetic algorithm (paper Algorithm 1, Sec. III-C).

    Chromosomes are partition groups; genes are partitions.  Each
    generation keeps the [n_sel] fittest groups and fills the population
    with [n_mut] mutants drawn (with replacement) from the survivors.  The
    mutation victim inside a group is the partition with the worst
    partition score R, and one of four schemes is applied with equal
    probability:

    - {b Merge}: fuse the worst-scoring pair of neighbours;
    - {b Split}: cut the victim at a random interior point;
    - {b Move}: shift the victim's boundary into a neighbour;
    - {b FixedRandom}: keep the best-scoring partition, regenerate the
      rest randomly within the validity map.

    All offspring are validity-checked; failed mutations retry and fall
    back to a fresh random group, so the population never leaves the
    feasible region. *)

type mutation_scheme =
  | Merge
  | Split
  | Move
  | Fixed_random

val scheme_name : mutation_scheme -> string

type params = {
  population : int;
  generations : int;
  n_sel : int;
  n_mut : int;
  early_stop_patience : int;
      (** Stop after this many generations without best-fitness improvement;
          0 disables early stopping. *)
  mutation_retries : int;
  schemes : mutation_scheme list;
      (** Enabled mutation schemes, drawn with equal probability (the paper
          uses all four); restricting the list supports ablation studies. *)
  seed : int;
  jobs : int;
      (** Worker-domain count for candidate evaluation (the [-j] knob).
          [1] runs fully sequentially.  The search result is bit-identical
          for every [jobs] value: mutation and selection stay on the main
          domain, each candidate mutates from its own [Rng.split] stream,
          and workers only run the pure estimator.  Both presets default
          to [Pool.default_jobs ()] ([COMPASS_JOBS], else 1). *)
  warm_start : Partition.t list;
      (** Seed groups injected verbatim into the initial population
          (validity-checked; invalid seeds are dropped, excess ones
          ignored).  Typically {!Optimal.optimize}'s group, so the GA
          starts at the DP optimum and can only improve on its own fitness
          proxy.  Empty (the default) leaves the search bit-identical to
          the unseeded run. *)
}

val default_params : params
(** The paper's setting: population 100, 30 generations, n_sel 20,
    n_mut 80, early stopping (patience 10). *)

val quick_params : params
(** A small budget for tests and examples (population 24, 10 generations). *)

type individual = {
  group : Partition.t;
  perf : Estimator.perf;
      (** The full estimator evaluation of [group].  The search scores
          candidates from their cached span costs alone and assembles this
          only for the best. *)
  fitness : float;
}

type generation_record = {
  generation : int;
  selected : (float * int) list;  (** (fitness, #partitions) of survivors. *)
  mutated : (float * int) list;  (** (fitness, #partitions) of new mutants. *)
  best_fitness : float;
}

type result = {
  best : individual;
  history : generation_record list;  (** Oldest first; Fig. 10's data. *)
  generations_run : int;
  evaluations : int;  (** Number of group evaluations performed. *)
  cache_spans : int;  (** Distinct spans evaluated (cache size). *)
  budget_exhausted : bool;
      (** True iff a {!Compass_util.Budget} expired and cut the search
          short; [best] is then the best candidate evaluated before the
          deadline rather than the full search's answer. *)
}

type checkpoint = {
  ck_params : params;
      (** The run's search configuration; re-applied on resume (only
          [jobs] follows the resuming caller — it cannot affect the
          trajectory). *)
  ck_objective : Fitness.objective;
  ck_batch : int;
  ck_generation : int;  (** Next generation index to run. *)
  ck_rng_state : int64;  (** Raw main-stream RNG state ({!Compass_util.Rng.state}). *)
  ck_best_seen : float;  (** Early-stopping incumbent. *)
  ck_stall : int;  (** Generations since the incumbent improved. *)
  ck_evaluations : int;
  ck_population : Partition.t array;
      (** The exact post-selection population, in its in-memory order —
          selection re-sorts it on resume precisely as the uninterrupted
          run would. *)
  ck_history : generation_record list;  (** Oldest first. *)
}
(** A complete, resumable snapshot of the search at a generation
    boundary.  Resuming from it replays the remaining generations
    bit-identically to the uninterrupted run: the RNG continues its
    stream, and the population is re-evaluated (evaluation is pure, so
    only the [evaluations] counter shows the resume happened). *)

val mutate :
  mutation_scheme ->
  Compass_util.Rng.t ->
  Validity.t ->
  scores:float array ->
  Partition.t ->
  Partition.t
(** Apply one mutation scheme to a group whose per-partition scores are
    [scores] (one per partition, higher = worse).  The result is always a
    contiguous cover of the unit range but may violate the validity map
    (the search retries in that case).  Raises [Invalid_argument] when the
    scheme is inapplicable (e.g. [Merge] on a single partition).  Exposed
    for property tests and ablation studies. *)

val optimize :
  ?params:params ->
  ?objective:Fitness.objective ->
  ?options:Estimator.model_options ->
  ?cache:Estimator.Span_cache.t ->
  ?budget:Compass_util.Budget.t ->
  ?supervision:Compass_util.Pool.supervision ->
  ?resume:checkpoint ->
  ?on_checkpoint:(checkpoint -> unit) ->
  Dataflow.ctx ->
  Validity.t ->
  batch:int ->
  result
(** Run the search.  With [params.jobs > 1], candidate evaluation fans out
    over that many domains; the result (best plan, history, evaluation and
    cache counts) is bit-identical to the sequential run for the same
    seed.  [?cache] supplies the run-wide span cache (extended in place):
    pre-populated entries are pure functions of their keys, so a warm cache
    only speeds the run up — the trajectory is unchanged, though the
    reported [cache_spans] then counts the warm entries too.

    [?budget] makes the search {e anytime}: the deadline is polled before
    every evaluation wave ([jobs] candidates; a single one at [jobs = 1]),
    so expiry overruns by at most one wave, and the result carries the
    best candidate evaluated so far with [budget_exhausted] set.  At least
    one candidate is always evaluated, even under an already-expired
    budget.  A budget generous enough to never expire leaves the run
    bit-identical to an unbudgeted one.

    [?supervision] is passed through to the evaluation pool
    ({!Compass_util.Pool.map_init}): a crashing fitness evaluation is
    retried on the calling domain, and — evaluation being pure — a
    recovered run stays bit-identical to an unfailed one.  Without it, a
    worker failure surfaces as a located
    {!Compass_util.Pool.Task_error}.  Failpoint sites: [ga.evaluate]
    (per evaluation wave), [ga.generation] (per generation), plus the
    pool's [pool.task].

    [?on_checkpoint] is called with a resumable snapshot after the initial
    evaluation and after every {e completed} generation (never for a
    generation the budget cut short).  [?resume] continues a snapshot:
    stored params and objective are re-applied (only [jobs] follows the
    caller) and the remaining generations replay bit-identically to the
    uninterrupted run.  Raises [Invalid_argument] when the checkpoint's
    batch differs from [batch] or its population is invalid for
    [validity] (wrong model, chip or fault scenario).

    Raises [Invalid_argument] on inconsistent parameters (e.g.
    [n_sel > population], [jobs < 1], or a cache brand mismatch). *)
