(** Global-memory allocator for inter-partition tensors.

    A first-fit free-list allocator over a byte address range.  The
    scheduler allocates every boundary tensor when its producing partition
    stores it and frees it after its last consuming partition, so peak
    usage tracks the liveness the paper's memory-access management
    implies. *)

type t

val create : ?base:int -> capacity:int -> unit -> t
(** [create ~capacity ()] manages [\[base, base + capacity)].  Sizes and
    addresses are rounded to 64 bytes.  Raises [Invalid_argument] on a
    non-positive capacity. *)

val alloc : t -> bytes:int -> tag:string -> int
(** First-fit allocation; returns the address.  Raises [Failure] when no
    free block fits (the scheduler treats this as a spill diagnostic). *)

val free : t -> int -> unit
(** Release by address, coalescing adjacent free blocks.  Raises
    [Invalid_argument] on an address that is not live. *)

val live_blocks : t -> (int * int * string) list
(** (address, bytes, tag) of live allocations, ascending. *)

val high_water_bytes : t -> int
(** Peak live (alignment-rounded) bytes observed. *)

val check_invariants : t -> (unit, string) result
(** Free and live blocks are disjoint, sorted, within range, and cover the
    arena exactly. *)
