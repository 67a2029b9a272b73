(** Deterministic pseudo-random number generation.

    All stochastic components of the compiler (initial population sampling,
    mutation choices, random splits) draw from an explicit [t] so that every
    compilation is reproducible from a seed.  The generator is splitmix64,
    which is small, fast and statistically adequate for search heuristics. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] returns a fresh generator.  Equal seeds yield equal
    streams. *)

val int : t -> int -> int
(** [int t bound] draws a uniform integer in [\[0, bound)].  [bound] must be
    positive. *)

val int_in : t -> int -> int -> int
(** [int_in t lo hi] draws a uniform integer in [\[lo, hi\]] (inclusive).
    Requires [lo <= hi]. *)

val float : t -> float -> float
(** [float t bound] draws a uniform float in [\[0, bound)]. *)

val bool : t -> bool
(** [bool t] draws a fair coin flip. *)

val pick_array : t -> 'a array -> 'a
(** [pick_array t xs] draws a uniform element of [xs].  Raises
    [Invalid_argument] on an empty array. *)

val shuffle : t -> 'a array -> unit
(** [shuffle t xs] permutes [xs] in place (Fisher-Yates). *)

val sample_without_replacement : t -> int -> int -> int list
(** [sample_without_replacement t n bound] draws [n] distinct integers from
    [\[0, bound)] in random order.  Requires [n <= bound]. *)

val split : t -> t
(** [split t] derives a new independent generator from [t], advancing [t]. *)

val state : t -> int64
(** The raw 64-bit generator state, for checkpointing.  Note this is not
    the [create] seed: [create s] starts from [Int64.of_int s], and the
    state advances with every draw. *)

val of_state : int64 -> t
(** Rebuild a generator from a {!state} snapshot; the new generator
    continues the snapshotted stream exactly. *)
