(** Weight replication allocation inside a partition (paper Sec. II-B).

    A partition executes as a layer pipeline; layers ahead of pooling or
    striding process many more pixels and bound the pipeline.  Spare macros
    left after mapping the partition once are spent replicating the current
    bottleneck layer, PIMCOMP-style, under the paper's constraints:

    - condition 2: all units originating from one kernel share a
      replication count (replication is per layer);
    - condition 3: the replicated total never exceeds the chip budget, and
      the final placement must bin-pack onto the cores.

    Replication is a joint optimization with weight replacement
    (paper Sec. II-B): every replica must be programmed again when the
    partition's weights are written, so the allocator only replicates the
    bottleneck while the pipeline time saved over a batch exceeds the extra
    macro-programming time. *)

type t = {
  per_layer : (Compass_nn.Graph.node * int) list;
      (** Replication per weighted layer of the span (>= 1). *)
  tiles_used : int;  (** After replication. *)
  spare_tiles : int;
}

type placement = {
  replication : t;
  mapping : Mapping.t;  (** The final bin-packing of the replicated span. *)
}

val place :
  ?faults:Compass_arch.Fault.t ->
  ?layers:Perf_model.layer_perf list ->
  Dataflow.ctx ->
  batch:int ->
  start_:int ->
  stop:int ->
  placement
(** Greedy bottleneck replication for the span, and the first-fit packing
    of the replicated units onto cores: the one placement step the
    estimator, the scheduler and recovery all read.  [batch] sets how many
    samples amortize the write cost of each replica.  Under [faults] the
    tile budget and the placement check both use effective capacities, so
    replicas never spill onto dead or degraded macros.  [?layers] supplies
    the span's precomputed [Perf_model.span_layers] result (it must be for
    the same span) so the allocator does not recompute it.  Raises
    [Invalid_argument] on a non-positive batch, or when replication 1
    itself does not place — impossible for spans drawn from a validity map
    built with the same fault scenario. *)

val replication_of : t -> Compass_nn.Graph.node -> int
(** 1 for layers absent from the allocation. *)

val max_replication : t -> int
