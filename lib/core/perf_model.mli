(** Per-layer timing primitives shared by the replication allocator and the
    partition estimator.

    The pipeline model follows ISAAC/PipeLayer-style accounting, extended
    as in the paper: each Conv output pixel is one MVM engaging all macros
    of the layer's units in parallel; the VFUs then merge row-block partial
    sums and apply the fused element-wise work.  A layer's units spread
    over several cores multiply the available VFU lanes, so larger chips
    with fewer, fatter units get slower per-pixel post-processing — the
    effect behind the paper's ResNet18-L observation. *)

type layer_perf = {
  node : Compass_nn.Graph.node;
  mvms : int;  (** Per-sample MVM count. *)
  tiles_in_span : int;
  weight_bytes_in_span : float;
  op_time_s : float;  (** Latency of one MVM including VFU merge. *)
  macro_ops_per_mvm : int;  (** Macros engaged by one MVM (span share). *)
  vfu_ops_per_mvm : int;  (** VFU element operations per MVM. *)
}

val span_layers : Dataflow.ctx -> start_:int -> stop:int -> layer_perf list
(** Weighted layers of the span in topological order, as array arithmetic
    over the context's {!Span_table.t}.  Raises [Invalid_argument] on an
    empty or out-of-range span. *)

val stage_time_s : layer_perf -> replication:int -> float
(** Per-sample pipeline stage time [mvms * op_time / replication]. *)

val attached_vfu_ops : Dataflow.ctx -> Dataflow.partition_io -> int
(** Per-sample VFU element operations of the span's attached non-weighted
    nodes. *)

val max_useful_replication : layer_perf -> int
(** Replicating beyond the per-sample MVM count cannot help. *)
