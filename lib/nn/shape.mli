(** Activation tensor shapes.

    Batch dimension is implicit (the compiler reasons per sample); a shape is
    either a spatial feature map or a flat feature vector. *)

type t =
  | Feature_map of {
      channels : int;
      height : int;
      width : int;
    }
  | Vector of { features : int }

val feature_map : channels:int -> height:int -> width:int -> t
(** Constructor with positivity checks. *)

val vector : int -> t
(** Constructor with positivity check. *)

val elements : t -> int
(** Number of scalar activations in one sample of this shape. *)

val bytes : activation_bits:int -> t -> float
(** Storage footprint of one sample at the given activation precision. *)

val spatial : t -> int * int
(** [(height, width)]; [(1, 1)] for vectors. *)

val equal : t -> t -> bool

val to_string : t -> string
(** e.g. ["64x56x56"] or ["4096"]. *)
