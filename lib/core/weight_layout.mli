(** Crossbar weight images: the compiler's final artifact.

    Given a plan and trained weights, produce — for every partition unit,
    replica, and macro tile — the integer code image that the weight-write
    phase programs into that macro (4-bit symmetric quantization per
    layer, [Compass_nn.Quant]).  Rows are the layer's flattened input
    dimension, logical columns its output channels; edge tiles are
    zero-padded.

    [reconstruct_layer] inverts the packing, and the test suite asserts it
    reproduces the quantized weight matrix exactly — the backend cannot
    scramble, drop or duplicate a weight. *)

type macro_image = {
  layer : Compass_nn.Graph.node;
  unit_index : int;
  replica : int;
  core : int;  (** Core the mapping placed this replica on. *)
  row_block : int;  (** Tile position within the unit's grid. *)
  col_block : int;
  codes : int array;
      (** [rows * logical_cols] signed codes, row-major, zero beyond the
          matrix edge. *)
}

type t = {
  partition : int;
  images : macro_image list;
  specs : (Compass_nn.Graph.node * Compass_nn.Quant.spec) list;
      (** Per-layer quantization scales needed to interpret the codes. *)
}

val pack_partition :
  Dataflow.ctx ->
  Partition.t ->
  partition:int ->
  weights:Compass_nn.Executor.weights ->
  ?bits:int ->
  unit ->
  t
(** Pack one partition of the group ([bits] defaults to the crossbar's
    weight precision).  Raises [Invalid_argument] on missing weights or an
    out-of-range partition index. *)

val reconstruct_layer : Dataflow.ctx -> t -> Compass_nn.Graph.node -> float array option
(** Rebuild the layer's full (quantized) weight array from replica-0
    images; [None] if the layer has no units in this partition.  Partial
    layers rebuild only the columns owned by the partition (other entries
    are 0). *)
