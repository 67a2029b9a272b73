(** Design-space exploration on top of the compiler.

    The paper evaluates three fixed chips; a compiler this fast (fractions
    of a second per compile) also supports the inverse question — which
    chip/batch configuration meets a target most efficiently.  This module
    sweeps configurations, compiles each with COMPASS, and extracts Pareto
    frontiers over (throughput, energy per inference). *)

type point = {
  chip : Compass_arch.Config.chip;
  batch : int;
  throughput_per_s : float;
  energy_per_sample_j : float;
  edp_j_s : float;
  capacity_mb : float;
}

val sweep :
  ?objective:Fitness.objective ->
  ?ga_params:Ga.params ->
  ?jobs:int ->
  ?budget:Compass_util.Budget.t ->
  ?supervision:Compass_util.Pool.supervision ->
  model:Compass_nn.Graph.t ->
  chips:Compass_arch.Config.chip list ->
  batches:int list ->
  unit ->
  point list
(** Compile every (chip, batch) pair with the COMPASS scheme; order follows
    the cartesian product (chips major).  [?jobs] forwards to
    {!Compiler.compile} (GA worker domains).  [?budget] makes the sweep
    anytime: once the token expires, remaining pairs are skipped (the
    already-compiled points are returned, and the in-flight GA itself cuts
    short, flagging its plan [budget_exhausted]).  Query
    {!Compass_util.Budget.exhausted} to learn whether the sweep was cut.
    [?supervision] forwards the worker-recovery policy to each point's GA
    (see {!Ga.optimize}).  Failpoint site: [explore.point] (per compiled
    point). *)

val pareto : point list -> point list
(** Points not dominated under (maximize throughput, minimize energy per
    sample), sorted by ascending energy.  Ties keep the first point. *)

val cheapest_meeting :
  throughput_per_s:float -> point list -> point option
(** The lowest-capacity (then lowest-energy) point reaching the target
    throughput. *)

val points_table : point list -> Compass_util.Table.t
