(** Layer operators of the model IR.

    Only [Conv] and [Linear] carry weights and are mapped onto crossbar
    arrays; the remaining operators execute on a core's vector functional
    units and are attached to their producing Conv/Linear partition by the
    compiler (paper Sec. III-B2). *)

type conv = {
  in_channels : int;
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride : int;
  padding : int;
  groups : int;
      (** Grouped convolution: input and output channels split into
          [groups] independent blocks; [groups = in_channels] is a
          depthwise convolution (MobileNets). *)
}

type pool_kind =
  | Max
  | Avg

type op =
  | Input of Shape.t  (** Model entry; carries the sample shape. *)
  | Conv of conv
  | Linear of {
      in_features : int;
      out_features : int;
    }
  | Pool of {
      kind : pool_kind;
      kernel : int;
      stride : int;
      padding : int;
    }
  | Global_avg_pool
  | Batch_norm
  | Relu
  | Add  (** Element-wise sum of exactly two equal-shape inputs. *)
  | Concat  (** Channel concatenation of feature maps with equal spatial size. *)
  | Flatten
  | Dropout  (** Inference no-op kept for model fidelity. *)

type t = {
  id : int;
  name : string;
  op : op;
}

val conv :
  ?stride:int ->
  ?padding:int ->
  ?groups:int ->
  in_channels:int ->
  out_channels:int ->
  int ->
  op
(** [conv ~in_channels ~out_channels k] is a square [k] x [k] convolution;
    [stride] defaults to 1, [padding] to [k/2] ("same" for odd kernels) and
    [groups] to 1.  Raises [Invalid_argument] unless both channel counts
    divide by [groups]. *)

val depthwise : ?stride:int -> ?padding:int -> channels:int -> int -> op
(** [depthwise ~channels k] is [conv ~groups:channels ~in_channels:channels
    ~out_channels:channels k]. *)

val linear : in_features:int -> out_features:int -> op

val max_pool : ?padding:int -> kernel:int -> stride:int -> unit -> op

val avg_pool : ?padding:int -> kernel:int -> stride:int -> unit -> op

val is_weighted : op -> bool
(** True for [Conv] and [Linear] — the crossbar-mapped operators. *)

val weight_params : op -> int
(** Number of weight scalars (0 for non-weighted operators).  Biases are
    excluded, matching the paper's Table II accounting. *)

val weight_rows : op -> int
(** Crossbar row demand of the flattened weight matrix:
    [in_channels/groups * kernel_h * kernel_w] for convolutions (each
    output channel reads only its group), [in_features] for linear layers;
    0 otherwise. *)

val weight_cols : op -> int
(** Crossbar (logical) column demand: [out_channels] or [out_features];
    0 for non-weighted operators. *)

val output_shape : op -> Shape.t list -> Shape.t
(** [output_shape op inputs] infers the output shape from the operator and
    its ordered input shapes.  Raises [Invalid_argument] when arity or
    dimensions are inconsistent (e.g. [Add] of different shapes, [Conv] on a
    vector, channel mismatch). *)

val mvms_per_sample : op -> Shape.t list -> int
(** Number of matrix-vector multiplications one sample requires: one per
    output pixel for [Conv], one for [Linear], 0 otherwise. *)

val vector_ops_per_sample : op -> Shape.t list -> int
(** Element-operation count executed on the VFUs (activation functions,
    pooling reductions, element-wise sums...). *)

val op_kind : op -> string
(** Short operator name for reports ("conv", "linear", "pool", ...). *)
