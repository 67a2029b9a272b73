(** Placement of partition units (and their replicas) onto PIM cores.

    Units never split across cores, so placement is bin packing with bin
    capacity = macros per core; first-fit-decreasing is used both as the
    feasibility oracle for the validity map and as the actual placement the
    scheduler emits.  An optional {!Compass_arch.Fault} scenario shrinks
    individual bins (degraded cores) or removes them (dead cores). *)

type assignment = {
  unit_index : int;
  replica : int;  (** 0-based replica id. *)
  tiles : int;
}

type t = {
  cores : assignment list array Lazy.t;
      (** Index = core id; creation order.  Built on first force: packing
          itself only counts tiles per core. *)
  tiles_used : int array;
  total_tiles : int;
  capacity_per_core : int;  (** Nominal (fault-free) macros per core. *)
  capacities : int array;  (** Effective per-core capacity under faults. *)
}

val pack :
  ?faults:Compass_arch.Fault.t ->
  Unit_gen.t ->
  start_:int ->
  stop:int ->
  replication:(int -> int) ->
  (t, string) result
(** [pack units ~start_ ~stop ~replication] places every unit of the span
    with [replication unit_index] copies, counting tiles per core; the
    per-core assignment lists ([cores]) are built only when forced.
    [Error] explains the failure (insufficient capacity or fragmentation,
    possibly induced by [faults]).  Raises [Invalid_argument] on misuse: a
    bad span, [replication < 1], a unit bigger than a pristine core, or a
    fault scenario whose core count differs from the chip's. *)

val feasible : ?faults:Compass_arch.Fault.t -> Unit_gen.t -> start_:int -> stop:int -> bool
(** Placement feasibility at replication 1 — the validity-map predicate. *)

val cores_used : t -> int

val utilization : t -> float
(** Used tiles over *effective* chip tiles, in [\[0, 1\]]. *)

val core_of_unit : t -> unit_index:int -> replica:int -> int
(** Core hosting a given replica.  Raises [Invalid_argument] if that
    replica was not placed by this mapping. *)
