(** Instruction scheduling (paper Sec. III-A, "scheduler").

    Lowers a partition group to one aggregate-instruction program per core
    (see [Compass_isa.Instr]) covering one batch:

    - per partition: each core programs its macros ([Weight_write],
      overlapping the previous partition's drain on other cores, as in
      Fig. 2), then a chip-wide barrier orders the partition's loads behind
      the previous partition's stores;
    - entry tensors are loaded from global memory by the lowest-numbered
      consuming core and redistributed over the bus; exit tensors are
      stored by each producing core (its column share);
    - tensors that fit the on-chip activation buffers are handed to the
      next partition as core-to-core [Send]/[Recv] pairs instead of
      DRAM round trips ([Dataflow.spills_to_dram] decides);
    - compute is emitted in 4 batch slices (fewer when [batch < 4]) so
      the simulator reproduces intra-partition pipelining across layers.

    Placement is computed once per partition from its core mapping, and
    every step above emits from it.  A layer's partial sums are merged,
    its ABFT [Check] runs and its in-partition inputs are received on one
    core: the one hosting replica 0 of the layer's first in-partition
    unit.  Attached (non-crossbar) work runs on the core hosting replica 0
    of its anchor unit ({!Dataflow.home_unit}).  An entry tensor's
    consuming cores are those cores of its in-partition consumers; an exit
    tensor's producing cores are the replica-0 cores of its in-partition
    units, each storing its unit's share.

    Weight blobs live in a dedicated DRAM region; boundary tensors are
    placed by [Memory_alloc] when produced and freed after their last
    consumer, giving the DRAM trace realistic, reusable addresses. *)

type t = {
  programs : Compass_isa.Program.t list;  (** One per core, core id order. *)
  weight_region_bytes : int;  (** DRAM reserved for weights. *)
  activation_high_water_bytes : int;  (** Peak live boundary-tensor bytes. *)
  instruction_count : int;
  spans : Partition.span list;
}

val build :
  ?faults:Compass_arch.Fault.t ->
  ?abft:bool ->
  Dataflow.ctx ->
  Partition.t ->
  batch:int ->
  t
(** Under [faults], placement uses per-core effective
    capacities, so dead cores receive no work (they still participate in
    the chip-wide [Sync] barriers, which are control broadcasts).
    [?abft] (default false) emits a [Check] instruction per layer per
    batch slice on the layer's merge core (see above) — the ABFT checksum verification of
    that chunk's MVM results, costed via {!Abft.check_ops_per_mvm} —
    mirrored by the estimator's [abft] model option.  Raises
    [Invalid_argument] on a group that does not cover the decomposition or
    a non-positive batch. *)

val simulate : Dataflow.ctx -> t -> Compass_isa.Sim.result
(** Run the programs through the event-driven chip simulator. *)

val dram_stats : Dataflow.ctx -> Compass_isa.Sim.result -> Compass_dram.Controller.stats
(** Replay the simulation's DRAM trace through the bank-accurate LPDDR3
    model (the paper's DRAMsim3 step). *)
