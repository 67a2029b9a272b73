(** Partitions and partition groups.

    A {e partition} is a contiguous span [\[start, stop)] of the unit
    decomposition order; a {e partition group} (the GA chromosome) is a
    sequence of partitions that exactly covers [\[0, M)].  The group is
    stored as its cut positions [\[|0; c1; ...; M|\]]. *)

type span = {
  start_ : int;  (** Inclusive. *)
  stop : int;  (** Exclusive. *)
}

type t
(** A partition group. *)

val of_cuts : int array -> t
(** Raises [Invalid_argument] unless the array is strictly increasing,
    starts at 0, and has length >= 2. *)

val of_spans : span list -> t
(** Raises [Invalid_argument] unless the spans tile [\[0, M)]
    contiguously. *)

val singleton : int -> t
(** [singleton m] is the one-partition group covering [\[0, m)]. *)

val cuts : t -> int array
(** A fresh copy of the cut array. *)

val spans : t -> span list

val cut : t -> int -> int
(** [cut t k] is the [k]-th cut, for [0 <= k <= partition_count t]:
    partition [k] is [\[cut t k, cut t (k + 1))].  Reading the cuts this
    way allocates nothing, unlike {!spans} or {!cuts}. *)

val partition_count : t -> int

val total_units : t -> int

val span_at : t -> int -> span
(** [span_at t k] is the [k]-th partition.  Raises [Invalid_argument] when
    out of range. *)

val partition_of_unit : t -> int -> int
(** Index of the partition containing a unit (binary search).  Raises
    [Invalid_argument] for units outside [\[0, total_units)]. *)

val equal : t -> t -> bool

val merge : t -> int -> t
(** [merge t k] fuses partitions [k] and [k+1].  Raises [Invalid_argument]
    when [k+1] is out of range. *)

val split : t -> int -> at:int -> t
(** [split t k ~at] cuts partition [k] at absolute unit position [at]
    (strictly inside the span). *)

val move : t -> int -> delta:int -> t
(** [move t k ~delta] shifts the cut between partitions [k] and [k+1] by
    [delta] units; the result must keep both spans non-empty. *)
