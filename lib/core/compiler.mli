(** Top-level COMPASS compiler driver (paper Fig. 3).

    [compile] runs the full flow — unit decomposition, validity map,
    partition search (GA or a baseline scheme), replication, mapping,
    estimation — and returns a plan; [schedule] lowers the plan to per-core
    instruction programs; [measure] executes them on the chip simulator and
    replays the DRAM trace through the LPDDR3 model. *)

type scheme =
  | Compass  (** GA-optimized partitioning (Algorithm 1). *)
  | Greedy
  | Layerwise
  | Optimal
      (** Exact DP over the valid-span DAG ({!Optimal}); accepts ["dp"] or
          ["optimal"] on the command line. *)

val scheme_of_string : string -> scheme
(** Case-insensitive.  Raises [Invalid_argument] on unknown names. *)

val scheme_to_string : scheme -> string

type t = {
  model : Compass_nn.Graph.t;
  chip : Compass_arch.Config.chip;
  batch : int;
  scheme : scheme;
  objective : Fitness.objective;
  units : Unit_gen.t;
  ctx : Dataflow.ctx;
  validity : Validity.t;
  group : Partition.t;
  perf : Estimator.perf;
  ga : Ga.result option;  (** Present for the [Compass] scheme. *)
  dp : Optimal.result option;
      (** Present for the [Optimal] scheme, and for [Compass] when compiled
          with [~warm_start:true]. *)
  faults : Compass_arch.Fault.t option;
      (** The fault scenario the plan was compiled (or repaired) under. *)
  budget_exhausted : bool;
      (** True iff a [?budget] expired during the search: the plan is the
          best candidate found before the deadline (still a valid,
          verifiable plan), not the full search's answer. *)
}

val compile :
  ?objective:Fitness.objective ->
  ?ga_params:Ga.params ->
  ?jobs:int ->
  ?warm_start:bool ->
  ?faults:Compass_arch.Fault.t ->
  ?budget:Compass_util.Budget.t ->
  ?supervision:Compass_util.Pool.supervision ->
  ?resume:Ga.checkpoint ->
  ?on_checkpoint:(Ga.checkpoint -> unit) ->
  model:Compass_nn.Graph.t ->
  chip:Compass_arch.Config.chip ->
  batch:int ->
  scheme ->
  t
(** Raises [Invalid_argument] for models without weighted layers or
    non-positive batch sizes.  [?jobs] overrides [ga_params.jobs] — the
    worker-domain count of the GA search (the CLI's [-j]; the compiled
    plan is bit-identical for any value).  [?warm_start] (default false)
    seeds the [Compass] GA with the DP optimum ({!Optimal.optimize} runs
    first and lands in [dp]); off, the GA is bit-identical to the unseeded
    search.  [?faults] compiles for a degraded chip: the validity map, GA
    search, replication and mapping all use per-core effective capacities,
    so the plan routes around dead and degraded cores.  Raises
    [Invalid_argument] when the scenario leaves some unit with no core big
    enough to host it.

    [?budget] makes the search phases (GA and DP) anytime: on expiry the
    plan is the best candidate found so far, with [budget_exhausted] set
    (see {!Ga.optimize} and {!Optimal.optimize} for the per-phase
    semantics; the front end and final evaluation always complete).
    [?resume] and [?on_checkpoint] thread GA checkpointing through the
    [Compass] scheme and are ignored by the others.  [?supervision]
    threads the worker-recovery policy to the GA's evaluation pool (see
    {!Ga.optimize}); evaluation is pure, so supervised recovery leaves
    the plan bit-identical.  Failpoint sites: [compiler.prepare],
    [compiler.compile]. *)

(** {1 Amortized front end}

    [prepare] runs the batch-independent front end (unit decomposition,
    validity map, span-table dataflow context) once per (model, chip,
    faults); [compile_prepared] then compiles any number of (batch,
    scheme) combinations against it.  [compile] is the two composed. *)

type prepared

val prepare :
  ?faults:Compass_arch.Fault.t ->
  model:Compass_nn.Graph.t ->
  chip:Compass_arch.Config.chip ->
  unit ->
  prepared
(** Raises like {!compile} for infeasible (model, chip, faults) triples. *)

val compile_prepared :
  ?objective:Fitness.objective ->
  ?ga_params:Ga.params ->
  ?jobs:int ->
  ?cache:Estimator.Span_cache.t ->
  ?warm_start:bool ->
  ?budget:Compass_util.Budget.t ->
  ?supervision:Compass_util.Pool.supervision ->
  ?resume:Ga.checkpoint ->
  ?on_checkpoint:(Ga.checkpoint -> unit) ->
  batch:int ->
  prepared ->
  scheme ->
  t
(** Compile one (batch, scheme) against a prepared front end.  [?cache]
    shares one span cache across several compilations of the same
    [prepared] and brand (same [batch] and options — i.e. same faults):
    the GA, the DP and the final evaluation all read and extend it, so
    e.g. a scheme comparison evaluates each distinct span once.  Plans are
    bit-identical with or without the cache.  Raises [Invalid_argument] on
    a cache brand mismatch. *)

type measurement = {
  schedule : Scheduler.t;
  sim : Compass_isa.Sim.result;
  dram : Compass_dram.Controller.stats;
}

val schedule : ?abft:bool -> t -> Scheduler.t
(** [?abft] (default false) lowers with ABFT [Check] instructions (see
    {!Scheduler.build}); the plan itself — and therefore saved plan files
    and checkpoints — is unaffected. *)

val measure : ?abft:bool -> t -> measurement
(** Lower, simulate and replay the DRAM trace. *)

(** {1 Plan repair under newly observed faults} *)

type repair_strategy =
  | Unchanged  (** Every span boundary survived; only the mapping moved. *)
  | Remapped of int  (** [n] spans were re-split locally. *)
  | Recompiled  (** Local repair degraded too much; full recompile ran. *)

type repair = {
  plan : t;  (** The repaired plan, carrying the fault scenario. *)
  strategy : repair_strategy;
  latency_before_s : float;  (** Estimated batch latency pre-fault. *)
  latency_after_s : float;  (** Estimated batch latency after repair. *)
  degradation : float;  (** [after / before] — the graceful-degradation cost. *)
}

val repair :
  ?ga_params:Ga.params ->
  t ->
  faults:Compass_arch.Fault.t ->
  (repair, string) result
(** Adapt a compiled plan to newly observed [faults].  Spans still valid
    under the degraded validity map keep their boundaries and are merely
    re-mapped; broken spans are re-split with a greedy walk over the
    faulted map.  If the re-split latency exceeds 1.5 times the
    original, a full [compile ~faults] runs instead.  [Error] when the model cannot run on the degraded chip at all
    (some unit fits no surviving core). *)

type fault_run = {
  faulted_sim : Compass_isa.Sim.result;
      (** The original schedule executed with mid-run fault injection:
          victims fail-stop at [at_s] and their remaining work is dropped
          ([dropped_instructions]), but the chip drains without deadlock. *)
  repair : repair;
  repaired : measurement;  (** Full measurement of the repaired plan. *)
  recovery_latency_s : float;
      (** Drain time of the interrupted batch plus one repaired batch —
          the latency cost of fail-stop-and-repair for the affected
          inferences. *)
}

val measure_with_faults :
  ?ga_params:Ga.params ->
  t ->
  at_s:float ->
  faults:Compass_arch.Fault.t ->
  (fault_run, string) result
(** End-to-end fault drill: inject the scenario's dead cores into a
    simulation of [t]'s schedule at time [at_s], then {!repair} the plan
    and measure the repaired schedule.  Degraded (but alive) cores do not
    fail-stop mid-run; they only constrain the repair.  [Error] as for
    {!repair}. *)

type on_chip_report = {
  on_chip_perf : Estimator.perf;
      (** Steady-state single-partition execution with weights pinned: no
          replacement phases at all (the PUMA/PIMCOMP execution model). *)
  on_chip_group : Partition.t;
}

val compile_on_chip :
  model:Compass_nn.Graph.t ->
  chip:Compass_arch.Config.chip ->
  batch:int ->
  (on_chip_report, string) result
(** The prior-compiler baseline: map everything at once or fail.  [Error]
    explains why (capacity or placement), reproducing Table II's "Prev."
    column as executable behaviour. *)

val supported_by_prior_compilers : Compass_nn.Graph.t -> Compass_arch.Config.chip -> bool
(** Whether an all-weights-on-chip compiler (PUMA / PIMCOMP) can map the
    model: total weight bytes within the chip capacity (Table II's "Prev."
    column). *)

val label : t -> string
(** "network-chip-batch" in the paper's naming, e.g. ["resnet18-S-16"]. *)

val pp_plan : Format.formatter -> t -> unit
(** Partition list with layers, replication and the estimated breakdown. *)
