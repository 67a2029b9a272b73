(** Cross-scheme comparisons and report rendering for the evaluation
    harness (Figs. 6-9, Table II). *)

type row = {
  config : string;  (** "network-chip-batch". *)
  scheme : string;
  partitions : int;
  latency_s : float;
  throughput_per_s : float;
  energy_per_sample_j : float;
  edp_j_s : float;
}

val row_of_plan : Compiler.t -> row

val compare_schemes :
  ?objective:Fitness.objective ->
  ?ga_params:Ga.params ->
  model:Compass_nn.Graph.t ->
  chip:Compass_arch.Config.chip ->
  batch:int ->
  unit ->
  row list
(** Compile all three schemes on one workload; rows in
    [compass; greedy; layerwise] order.  The schemes share one prepared
    front end and one span cache, so each distinct span is estimated
    once. *)

type gap_row = {
  gap_scheme : string;
  gap_value : float;  (** {!Optimal.objective_value} of the scheme's plan. *)
  gap : float;  (** [value / dp lower bound - 1]; 0 means provably optimal. *)
}

val optimality_gap :
  ?objective:Fitness.objective ->
  ?ga_params:Ga.params ->
  model:Compass_nn.Graph.t ->
  chip:Compass_arch.Config.chip ->
  batch:int ->
  unit ->
  Optimal.result * gap_row list
(** How far each scheme lands from the DP's certified bound, in
    [dp; compass; greedy; layerwise] order ([objective] defaults to
    latency).  All four share one front end and span cache.  For the exact
    objectives the dp row's gap is 0 by construction; for EDP it is the
    bound-tightness of the incumbent. *)

val optimality_gap_table :
  objective:Fitness.objective -> Optimal.result * gap_row list -> Compass_util.Table.t
(** Render {!optimality_gap}'s result, with the bound as a trailer row. *)

val speedup : row list -> over:string -> float
(** Throughput of the "compass" row over the named baseline row.
    Raises [Not_found] when a scheme is missing. *)

val rows_table : row list -> Compass_util.Table.t

val write_csv : string -> row list -> unit
(** [write_csv path rows] writes a header plus one line per row (numeric
    fields in SI units) to a file atomically
    ({!Compass_util.Artifact.write_atomic}). *)

val support_table : Compass_nn.Graph.t list -> Compass_arch.Config.chip -> Compass_util.Table.t
(** Table II's support matrix against one chip: model sizes plus
    "Prev."/"Ours" columns. *)

val endurance_table : ?endurance_cycles:float -> Compiler.t list -> Compass_util.Table.t
(** Endurance accounting per plan: weight writes per inference, the
    most-rewritten macro's writes per inference, and the projected device
    lifetime in inferences (and in days at a nominal 100 inf/s).  The
    budget comes from each plan's fault scenario when present, else from
    [?endurance_cycles] (e.g.
    [Compass_arch.Technology.reram.endurance_cycles]). *)

val profile_table : unit -> Compass_util.Table.t
(** The merged {!Compass_util.Metrics} snapshot as a two-column table,
    followed by derived rates (estimator span-cache hit rate, DRAM row-hit
    rate) when their inputs are present.  Meaningful only after a run with
    metrics enabled. *)

val plan_layer_table : Compiler.t -> Compass_util.Table.t
(** One row per weighted layer of the plan: partition, replication, stage
    time after replication, and whether the layer is the partition's
    pipeline bottleneck. *)
