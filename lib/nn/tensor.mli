(** Dense float tensors and the reference operator implementations.

    One sample, channel-major layout (CHW for feature maps, flat for
    vectors).  This is the functional substrate behind [Executor]: a slow,
    obviously-correct implementation of every IR operator, used to verify
    that compiled, partitioned execution computes the same function as the
    original network. *)

type t

val create : Shape.t -> (int -> float) -> t
(** [create shape f] fills element [i] (layout order) with [f i]. *)

val shape : t -> Shape.t

val to_array : t -> float array
(** A fresh copy of the underlying data. *)

val equal : ?eps:float -> t -> t -> bool
(** Element-wise comparison within [eps] (default 1e-9); even at
    [~eps:0.] it equates [-0.] and [0.]. *)

val same_bits : t -> t -> bool
(** Same shape and the same IEEE-754 bit pattern in every element: [-0.]
    differs from [0.], and a NaN matches only a NaN of equal payload. *)

val max_abs_diff : t -> t -> float
(** Largest element-wise difference; raises [Invalid_argument] on shape
    mismatch. *)

(** {2 Operators}

    Weight layouts match [Layer]: convolutions take
    [out_c * in_c * kh * kw] arrays, linear layers [out * in] arrays
    (row-major, one row per output). *)

val conv2d : Layer.conv -> weights:float array -> t -> t
val linear : in_features:int -> out_features:int -> weights:float array -> t -> t

val conv2d_gemm : ?scratch:Im2col.scratch -> Layer.conv -> weights:float array -> t -> t
(** Fast convolution via [Im2col]: bit-identical outputs to {!conv2d}
    (the naive kernel remains the oracle; a QCheck differential suite
    pins the equivalence).  [scratch] reuses a patch buffer across
    calls — one per domain. *)

val linear_gemm : in_features:int -> out_features:int -> weights:float array -> t -> t
(** Fast dense layer, bit-identical to {!linear}. *)

val max_pool : kernel:int -> stride:int -> padding:int -> t -> t
val avg_pool : kernel:int -> stride:int -> padding:int -> t -> t
val global_avg_pool : t -> t
val relu : t -> t
val add : t -> t -> t
val concat : t list -> t
val flatten : t -> t

val pp_stats : Format.formatter -> t -> unit
(** Shape, min/max/mean — for debugging. *)
