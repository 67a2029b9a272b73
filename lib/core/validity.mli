(** Partition validity map (paper Sec. III-B1, Fig. 5).

    For each start position [a], the map records the largest end [b] such
    that every span [\[a, b')] with [b' <= b] fits the chip at replication 1
    (total tile budget and core bin-packing both satisfied).  Random
    partition generation draws end positions only inside the valid range,
    guaranteeing every generated chromosome is feasible.

    Built with a {!Compass_arch.Fault} scenario, the map uses per-core
    *effective* capacities, so every valid span also routes around dead and
    degraded cores. *)

type t

val build : ?faults:Compass_arch.Fault.t -> Unit_gen.t -> t
(** Raises [Invalid_argument] if, under [faults], some single unit fits no
    usable core — the model cannot be compiled on the degraded chip at
    all.  Without [faults] this cannot happen (units are generated to fit
    a pristine core). *)

val units : t -> Unit_gen.t

val size : t -> int
(** Number of partition units [M]. *)

val max_end : t -> int -> int
(** [max_end t a] for [0 <= a < size t]; always [> a] since a unit fits a
    core by construction (checked at build time under faults). *)

val is_valid : t -> start_:int -> stop:int -> bool
(** True iff [start_ < stop <= max_end t start_]. *)

val group_valid : t -> Partition.t -> bool
(** Every partition of the group is valid and the group covers
    [\[0, size t)]. *)

val density : t -> float
(** Fraction of [(a, b)] pairs with [a < b] that are valid — the "valid
    portion" the paper shows shrinking for larger models on smaller
    chips. *)

val random_group : Compass_util.Rng.t -> t -> Partition.t
(** Draw a valid partition group by a random walk over [\[0, size t)]:
    half the time each step jumps as far as the map allows (biasing
    towards fewer partitions); otherwise the end is uniform in the valid
    range.  The walk is the GA's single random-cover policy — its draw
    sequence (a coin, then maybe a uniform end, per step) is part of the
    GA's bit-identical-results contract. *)

val random_group_around : Compass_util.Rng.t -> t -> Partition.span -> Partition.t
(** A group with the given valid span as one of its partitions, the units
    before and after it covered by the walk of {!random_group} (the
    prefix drawn first): the GA's FixedRandom mutation. *)

val render : ?cells:int -> t -> string
(** ASCII heat map ([cells] x [cells], default 32): ['#'] valid span,
    ['.'] invalid, [' '] below the diagonal.  Degenerates to a title-only
    string when the map is empty. *)
