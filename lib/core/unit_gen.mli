(** Model decomposition into partition units (paper Sec. III-B, Fig. 4).

    Every Conv/Linear weight matrix is tiled into a grid of crossbar macros
    (rows = [in_channels * kh * kw], logical columns = output channels) and
    the tiles are packed, column-major, into {e partition units} — the
    minimum partitioning granularity, each sized to fit the macro budget of
    a single PIM core (paper condition 1).

    Layers whose row demand alone exceeds one core (e.g. VGG16's first
    linear layer on chip S) are additionally split along the input
    dimension; such units compute partial sums that the VFUs accumulate,
    which the estimator charges as extra vector work.

    Units are ordered by topological layer order, then column slice, then
    row slice; a partition is always a contiguous span of this order. *)

type unit_t = {
  index : int;  (** Global position in the decomposition order. *)
  layer : Compass_nn.Graph.node;  (** Producing Conv/Linear node. *)
  layer_order : int;  (** Rank among weighted nodes. *)
  col_lo : int;  (** First logical output column covered, inclusive. *)
  col_hi : int;  (** Last logical output column covered, exclusive. *)
  row_lo : int;  (** First input row covered, inclusive. *)
  row_hi : int;
  row_blocks : int;  (** Macro rows of this unit's tile grid. *)
  col_blocks : int;
  tiles : int;  (** [row_blocks * col_blocks], <= macros per core. *)
  weight_bytes : float;  (** Logical weight bytes resident in this unit. *)
  partial_sum : bool;  (** True when the layer is row-split. *)
}

type t = {
  model : Compass_nn.Graph.t;
  chip : Compass_arch.Config.chip;
  units : unit_t array;
  layer_units : (Compass_nn.Graph.node * int list) list;
      (** For each weighted node, the indices of its units (ascending). *)
  tiles_prefix : int array;
      (** [tiles_prefix.(i)] = tiles of units [0, i); length [M + 1]. *)
  weight_bytes_prefix : float array;
      (** Prefix sums of per-unit weight bytes; exact (the addends are
          dyadic rationals well below the 53-bit mantissa), so differences
          equal the direct span sum bit for bit. *)
}

val generate : Compass_nn.Graph.t -> Compass_arch.Config.chip -> t
(** Decompose [model] for [chip].  Raises [Invalid_argument] if the model
    has no weighted layer. *)

val unit_count : t -> int

val units_of_layer : t -> Compass_nn.Graph.node -> int list
(** Raises [Not_found] for nodes without units. *)

val layer_of_unit : t -> int -> Compass_nn.Graph.node

val span_weight_bytes : t -> int -> int -> float
(** O(1) via {!field-weight_bytes_prefix}. *)

val col_fraction : unit_t -> Compass_nn.Graph.t -> float
(** Fraction of the layer's output channels this unit produces
    ([0 < f <= 1]); used to scale activation transfer sizes. *)
