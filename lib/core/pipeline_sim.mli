(** Pixel-level discrete simulation of one partition's layer pipeline.

    The estimator collapses intra-partition execution to the closed form
    [fill + B * bottleneck] (ISAAC/PipeLayer-style).  This module checks
    that form against an explicit simulation: every layer is a station
    processing its per-sample MVM stream at [op_time / replication] per
    item, consuming its producers' outputs at the pixel granularity the
    receptive field allows.

    The simulation is intentionally simple — single-sample items per stage,
    dependencies approximated as "stage l may process item k once every
    producer has finished item k" at matching progress fractions — but it
    is an independent derivation, so agreement with the closed form is
    evidence, not tautology. *)

type stage = {
  node : Compass_nn.Graph.node;
  items : int;  (** Per-sample work items (MVMs). *)
  item_time_s : float;  (** Per-item service time after replication. *)
  producers : int list;  (** Indices into the partition's stage list. *)
}

type result = {
  makespan_s : float;
  stage_busy_s : float array;  (** Total service time per stage. *)
  bottleneck_index : int;
}

val simulate : batch:int -> stage list -> result
(** Run the pipeline for [batch] samples.  Raises [Invalid_argument] on an
    empty stage list or producer index out of range. *)

val estimator_agreement : Dataflow.ctx -> batch:int -> start_:int -> stop:int -> float
(** Ratio (simulated / estimator compute time) for one span; tests assert
    it stays within a small band around 1. *)
