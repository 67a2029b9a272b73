(** Partition and partition-group performance estimation.

    This is the paper's enhanced PIMCOMP latency estimator: the original
    pipelined intra-partition model extended with weight-write phases,
    intermediate-feature loads/stores and external-memory latency, executed
    per batch (Sec. II-B, IV-A2).

    Timing model per partition, for a batch of [B] samples:

    - {b weight write}: unique weights are streamed from DRAM once and
      broadcast on the bus; replicas cost extra macro programming time but
      no extra DRAM traffic.  Cores program their macros in parallel, rows
      serially within a core.
    - {b compute}: the layer pipeline runs at the bottleneck stage,
      [fill + B * max_l (mvms_l * op_time_l / rep_l)], with attached
      non-crossbar work as an extra VFU stage.
    - {b IO}: entry loads and exit stores move [B x bytes] over the bus;
      tensors that do not fit the on-chip activation buffers additionally
      pay DRAM bandwidth and a per-endpoint request overhead.  IO overlaps
      compute (double buffering), so a partition costs
      [max(compute, io)].
    - {b write overlap}: the weight fetch of partition [p+1] hides under
      DRAM idle time while [p] computes
      ([exposed = max(0, write - max(0, compute_p - io_p))]).

    Energy integrates MVM, VFU, macro programming, bus, DRAM (analytic
    streaming model) and chip static power. *)

(** What the search reads of a span: the cost terms of
    {!Fitness.span_fitness} and of the batch-latency recurrence of
    {!combine}, copied from the span's {!span_perf}.  The span caches hold
    these, not whole records: a cost is 21 words where a record, with its
    IO lists, replication and per-core tile counts, is well over a
    hundred. *)
type span_cost = {
  start_ : int;
  stop : int;
  span_s : float;
  compute_s : float;
  io_s : float;
  write_s : float;
  wear_cost_s : float;
  energy_j : float;
      (** The span's dynamic energy: MVM, VFU, macro programming, bus and
          DRAM, summed left to right in that order. *)
}

type span_perf = {
  start_ : int;
  stop : int;
  io : Dataflow.partition_io;
  replication : Replication.t;
  cores_used : int;
  utilization : float;  (** Tiles placed over chip tiles. *)
  stage_times : (Compass_nn.Graph.node * float) list;
      (** Per-sample stage time of each weighted layer after replication. *)
  bottleneck_s : float;  (** Slowest per-sample stage (incl. attached VFU). *)
  fill_s : float;  (** Pipeline fill latency. *)
  compute_s : float;  (** Batch compute time. *)
  check_s : float;
      (** Total ABFT verification work per batch ([{!model_options.abft}]
          on; 0 otherwise).  The per-layer share is already folded into
          [stage_times]/[bottleneck_s], so this field is the overhead
          report, not an extra latency term. *)
  unique_weight_bytes : float;  (** DRAM traffic for weights. *)
  programmed_bytes : float;  (** Including replicas. *)
  write_s : float;  (** Weight replacement phase, before overlap. *)
  io_load_bytes : float;  (** Batch activation loads. *)
  io_store_bytes : float;
  io_dram_bytes : float;
      (** Batch activation traffic that spills to DRAM: model inputs and
          outputs always, plus inter-partition tensors whose batch residency
          exceeds the on-chip activation buffer (half the cores' local
          memory); everything else stays on chip and only crosses the bus. *)
  io_s : float;
  span_s : float;  (** write + max(compute, io): the span's raw latency. *)
  tiles_per_core : int array;
      (** Macros programmed on each core at every weight replacement
          (replicas included) — the endurance-accounting input. *)
  wear_cost_s : float;
      (** Per-sample macro-programming time; the {!Fitness.Wear} penalty.
          0 when writes are not charged. *)
  mvm_energy_j : float;
  vfu_energy_j : float;
  write_energy_j : float;  (** Macro programming. *)
  bus_energy_j : float;
  dram_energy_j : float;
}

val span_cost_of : span_perf -> span_cost
(** Project a record onto its cost; every field is copied bit for bit. *)

type model_options = {
  write_overlap : bool;
      (** Hide the next partition's weight fetch under the previous
          partition's DRAM-idle compute (Fig. 2); on by default. *)
  onchip_buffering : bool;
      (** Keep fitting boundary tensors in the cores' local memories instead
          of DRAM; on by default. *)
  charge_writes : bool;
      (** Charge weight-write phases at all.  Disabled only by the
          all-on-chip (PUMA/PIMCOMP) execution mode, where weights are
          pinned once and reused forever. *)
  faults : Compass_arch.Fault.t option;
      (** Fault scenario: replication and mapping use per-core effective
          capacities, and the scenario's endurance budget feeds lifetime
          projection.  [None] (the default) is the pristine chip. *)
  abft : bool;
      (** Charge ABFT column-checksum verification on every MVM
          ({!Abft.check_ops_per_mvm} element ops at the primary core's VFU
          rate, mirroring the scheduler's [Check] emission).  Off by
          default. *)
}

val default_options : model_options
(** All features enabled, no faults — the COMPASS model. *)

(** Wear accounting for the weight-replacement execution model: every
    placed tile is one macro programming per batch.  First-fit packing
    fills macro slots from 0, so the busiest (core, slot) pair bounds
    device lifetime.  That pair is slot 0 of the core the most spans place
    tiles on, so the estimator computes it in closed form, in one pass over
    the spans' [tiles_per_core]; [Verify] re-derives it slot by slot. *)
type endurance = {
  macro_writes_per_batch : int;
      (** Macro programmings per batch, summed over spans and replicas. *)
  writes_per_inference : float;  (** Total writes / batch. *)
  max_writes_per_macro_per_inference : float;
      (** Writes on the most-rewritten macro, per sample. *)
  projected_lifetime_inferences : float option;
      (** [budget / max_writes_per_macro_per_inference] when the fault
          scenario carries an endurance budget (e.g. ReRAM ~1e6). *)
}

type perf = {
  batch : int;
  spans : span_perf list;
  batch_latency_s : float;  (** With inter-partition write overlap. *)
  throughput_per_s : float;  (** Samples per second. *)
  energy_j : float;  (** Whole batch, including static. *)
  energy_per_sample_j : float;
  edp_j_s : float;  (** Energy per sample x per-sample latency. *)
  energy_components : (string * float) list;
  endurance : endurance;
}

val span_perf :
  ?options:model_options -> Dataflow.ctx -> batch:int -> start_:int -> stop:int -> span_perf
(** Evaluate one candidate partition; results are cacheable by
    [(start_, stop, batch, options)]. *)

val combine : ?options:model_options -> Dataflow.ctx -> batch:int -> span_perf list -> perf
(** Assemble a group's [perf] from its partitions' [span_perf]s, in
    order: the overlapped batch latency, the energy components and the
    closed-form endurance.  {!evaluate} and {!evaluate_cached} end
    here. *)

val span_perfs :
  ?options:model_options -> Dataflow.ctx -> batch:int -> Partition.t -> span_perf list
(** The group's [span_perf]s in order, computed afresh and counted
    nowhere: what {!evaluate} combines, and what the GA assembles its
    best candidate's [perf] from. *)

val evaluate :
  ?options:model_options -> Dataflow.ctx -> batch:int -> Partition.t -> perf
(** Evaluate a full partition group.  Raises [Invalid_argument] if the
    group does not cover the decomposition or [batch < 1]. *)

(** Span caches for the GA and DP searches, holding each span's
    {!span_cost}.  Costs depend on [batch] and [model_options] as much as
    on the [(start_, stop)] key, so a cache is branded with both at
    creation time and every operation that could mix entries from
    differently-branded caches raises [Invalid_argument]
    instead of silently returning stale results. *)
module Span_cache : sig
  type t

  val create : ?options:model_options -> batch:int -> unit -> t
  (** A fresh empty cache for one [(batch, options)] brand ([options]
      defaults to {!default_options}).  Raises [Invalid_argument] when
      [batch < 1]. *)

  val batch : t -> int
  val options : t -> model_options

  val length : t -> int
  (** Number of distinct spans cached. *)

  val merge_into : t -> src:t -> unit
  (** [merge_into dst ~src] copies [src]'s entries into [dst], keeping
      [dst]'s entry on key collisions (entries are pure functions of the
      key under a fixed brand, so both are equal), and publishes the
      [estimator.span_cache.hits]/[.misses] that {!spans_cached} counted
      on [src] since.  Raises [Invalid_argument] when the brands differ.
      The GA merges the domain-local caches of each evaluation wave into
      the run-wide cache with this. *)
end

val span_cost_cached :
  ?shared:Span_cache.t ->
  cache:Span_cache.t ->
  Dataflow.ctx ->
  start_:int ->
  stop:int ->
  span_cost
(** One span's cost through the cache: consult [?shared] (read-only),
    then [cache]; on a miss compute {!span_perf} under the cache's brand
    and record its cost in [cache].  The DP optimizer's span sweep reads
    spans through this.  Raises [Invalid_argument] when the brands
    disagree. *)

val spans_cached :
  ?shared:Span_cache.t ->
  cache:Span_cache.t ->
  Dataflow.ctx ->
  Partition.t ->
  span_cost list
(** The group's span costs in order, each through the caches as
    {!span_cost_cached} does, without assembling a [perf]: what the GA
    scores a candidate from.  The lookups are counted on [cache] and
    published when it is merged into another cache
    ({!Span_cache.merge_into}).  Raises [Invalid_argument] when the
    brands disagree. *)

val evaluate_cached :
  ?shared:Span_cache.t ->
  cache:Span_cache.t ->
  Dataflow.ctx ->
  batch:int ->
  Partition.t ->
  perf
(** [evaluate] with an external span cache: each span is looked up and
    counted as {!spans_cached} does, and the costs of newly computed spans
    are added to [cache].  The cache holds no records, so every span's
    [span_perf] is computed here, once, hit or miss.  [?shared] is an
    optional second cache consulted first and {e never written} — during
    parallel GA evaluation it is the run-wide cache, safely read by every
    domain while each writes only its own [cache].  Raises [Invalid_argument] when [batch] (or [shared]'s brand)
    disagrees with [cache]'s brand, or when [batch < 1].  All entries must
    come from the same [ctx]. *)

val pp_breakdown : Compass_nn.Graph.t -> Format.formatter -> perf -> unit
(** Per-partition table: layers, replication, write/compute/io split. *)
