(** Precomputed span-evaluation tables: the one path every span query of
    the partitioner runs through.

    Span cost queries — which weighted layers a span [\[a, b)] covers, how
    many tiles/weight bytes/output columns of each fall inside, which
    non-crossbar nodes are attached — are on the hot path of every
    estimator call: the GA, the baselines and the DP optimizer all issue
    thousands of them.  This table answers them with array lookups instead
    of graph walks:

    - [unit_layer.(i)] names unit [i]'s weighted node, and
      [unit_hi.(node) + 1] jumps to the next layer, so enumerating a
      span's layers is O(#layers in span);
    - [unit_lo]/[unit_hi] bound each layer's contiguous unit range, so the
      first in-span unit of a layer is [max unit_lo start];
    - prefix sums over per-unit tiles and columns (plus
      {!Unit_gen.t.tiles_prefix} / [weight_bytes_prefix]) make per-layer
      span shares O(1) differences;
    - per-node geometry ([rows], [cols], [row_blocks], [mvms]) avoids
      re-deriving layer shapes per query;
    - [attached] lists the non-weighted, non-input nodes once in
      topological order, so span attachment is a scan of a small array,
      filtered by [anchor], instead of a full graph walk.

    Built once per {!Dataflow.ctx} by [Dataflow.context].  Integer prefix
    differences are exact, and so is the float weight-byte prefix by the
    argument on {!Unit_gen.t.weight_bytes_prefix}, so every share equals
    the direct per-unit sum bit for bit. *)

type t = {
  unit_layer : Compass_nn.Graph.node array;
      (** Per unit: the weighted node that owns it. *)
  cols_prefix : int array;
      (** Prefix sums of per-unit output-column counts; length [M + 1]. *)
  unit_lo : int array;  (** Per node: first unit index, [-1] if none. *)
  unit_hi : int array;  (** Per node: last unit index (inclusive), [-1] if none. *)
  anchor : int array;
      (** Per node: [Dataflow.home_unit], the unit a node belongs with. *)
  rows : int array;  (** Per node: weight rows (0 for unweighted). *)
  cols : int array;  (** Per node: weight cols (0 for unweighted). *)
  row_blocks : int array;  (** Per node: macro row blocks of the tile grid. *)
  mvms : int array;  (** Per node: per-sample MVM count. *)
  attached : Compass_nn.Graph.node array;
      (** Non-weighted, non-input nodes in topological order. *)
  vector_ops : int array;
      (** Per node: per-sample VFU element operations (0 for inputs). *)
  succ : Compass_nn.Graph.node list array;
      (** Per node: successor list ([Graph.succs] re-reverses its edge list
          on every call; this is that list, built once). *)
}

val create : Unit_gen.t -> t
