(** Partition-level dataflow: non-crossbar layer attachment and global
    memory access management (paper Sec. III-B2 and III-B3).

    Non-crossbar-mappable nodes (pooling, batch norm, activations,
    element-wise sums, concatenations) are attached to the partition of
    their producing Conv/Linear nodes by walking the dependence graph
    backwards.  Every edge that crosses a partition boundary marks the
    producer as a {e store} endpoint and the consumer as a {e load}
    endpoint with the corresponding transfer size — a partition may have
    several of each (e.g. a residual connection not fully contained in a
    partition).

    The IO set of a span [\[a, b)] depends only on the span itself (a tensor
    is loaded iff produced outside it, stored iff consumed outside it), so
    the API is span-oriented and the GA can cache per-span fitness. *)

type partition_io = {
  start_ : int;
  stop : int;
  weighted_layers : Compass_nn.Graph.node list;
      (** Conv/Linear nodes with at least one unit in the span, in
          topological order. *)
  attached : Compass_nn.Graph.node list;
      (** Non-weighted nodes homed in the span. *)
  loads : (Compass_nn.Graph.node * float) list;
      (** Entry tensors: producing node and bytes read from global memory
          per sample. *)
  stores : (Compass_nn.Graph.node * float) list;
      (** Exit tensors: producing node and bytes written per sample. *)
  load_bytes : float;  (** Per-sample total. *)
  store_bytes : float;
}

type ctx
(** Precomputed per-(model, chip) attachment tables. *)

val context : Unit_gen.t -> ctx
(** Builds the context's {!Span_table.t} and per-unit output fractions:
    every span query below is an array lookup over them. *)

val units : ctx -> Unit_gen.t

val table : ctx -> Span_table.t
(** The span table the queries run on; the scheduler reads its unit
    ranges and per-node data as well. *)

val span_io : ctx -> start_:int -> stop:int -> partition_io
(** IO of one candidate partition.  Raises [Invalid_argument] on an empty
    or out-of-range span. *)

val home_unit : ctx -> Compass_nn.Graph.node -> int
(** Decomposition-order position anchoring a node: for weighted nodes the
    index of their last unit; for other nodes the maximum over their
    producers ([-1] for model inputs).  A node belongs to span [\[a, b)] iff
    its anchor does. *)

val unit_fraction : ctx -> int -> float
(** Fraction of its layer's output unit [i] produces: its column share,
    scaled by its row share when the layer is row-split.  A layer's units
    sum to 1 up to rounding. *)

val layer_fraction_in : ctx -> Compass_nn.Graph.node -> start_:int -> stop:int -> float
(** Fraction of a weighted node's output produced inside the span, in
    [\[0, 1\]]; non-weighted nodes return 1 when homed inside, else 0. *)

val tensor_bytes : ctx -> Compass_nn.Graph.node -> float
(** Full per-sample activation bytes of a node's output tensor. *)

val is_model_input : ctx -> Compass_nn.Graph.node -> bool
(** True for [Input] layers — their tensors always stream from DRAM. *)

val spills_to_dram : ctx -> batch:int -> Compass_nn.Graph.node -> bool
(** Whether a tensor crossing a partition boundary goes through DRAM:
    model inputs and exit nodes always do; other tensors spill when a
    batch of them exceeds the activation buffer, half of the cores'
    aggregate local memory (the other half holds working-set registers
    and partial sums).  The estimator and the scheduler share this rule
    so analytic and simulated DRAM traffic agree. *)
