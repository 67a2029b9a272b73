(** Reference (functional) execution of model graphs.

    Runs a graph on actual tensors with the operators in [Tensor] — the
    oracle against which compiled, partitioned execution is validated
    ([Compass_core.Partition_exec]).  Batch normalization and dropout are
    inference-mode identities (folded scales are part of the conv weights
    in deployed PIM networks).

    Two interchangeable kernel engines drive the weighted operators:
    the naive nested-loop reference ([Naive]) and the im2col/GEMM
    lowering ([Gemm], the default) — bit-identical by construction and
    pinned so by a QCheck differential suite, so every equivalence
    proof downstream is engine-independent.

    [output] and [output_batch] share one traversal that frees as it
    goes: a node's tensors are dropped right after its last consumer in
    topological order has run, so a call holds only the live
    activations, never the whole network's.  Per-layer [Trace] spans
    ([infer.layer]), the [infer.gemm_ns]/[infer.im2col_bytes] counters
    and the [infer.live_bytes_peak] gauge (the most activation bytes
    the table held at a layer boundary: every live node at its full
    shape times the batch, aliases counted again) cover both
    single-sample and batched execution. *)

type weights = (Graph.node, float array) Hashtbl.t
(** One weight array per Conv/Linear node, in [Tensor]'s layouts. *)

type engine =
  | Naive  (** Scalar nested loops — the oracle. *)
  | Gemm  (** Im2col + cache-blocked GEMM — bit-identical, much faster. *)

exception Cancelled
(** Raised by {!output}/{!output_batch} when the [?budget] token
    expires: the traversal checks the deadline at every layer boundary,
    so a timed-out inference is abandoned between layers rather than
    mid-kernel or not at all.  The serving runtime maps this
    to a [timeout] response envelope. *)

val engine_of_string : string -> engine option
(** ["naive"] / ["gemm"]. *)

val engine_to_string : engine -> string

val random_weights : ?seed:int -> Graph.t -> weights
(** Deterministic pseudo-random weights in [[-0.1, 0.1]] for every
    weighted node. *)

val random_input : ?seed:int -> Graph.t -> Tensor.t
(** A deterministic random tensor matching the graph's [Input] shape.
    Raises [Invalid_argument] on graphs without exactly one input. *)

val output : ?engine:engine -> ?budget:Compass_util.Budget.t -> Graph.t -> weights -> Tensor.t -> Tensor.t
(** [output g weights input] executes the whole graph and returns the
    unique exit node's tensor.  Raises [Invalid_argument] when the graph
    has several exits, on missing weights or on shape violations (the
    latter cannot happen for validated graphs); [?budget] is polled at
    every layer boundary and its expiry raises {!Cancelled}. *)

val output_batch :
  ?engine:engine ->
  ?budget:Compass_util.Budget.t ->
  ?pool:Compass_util.Pool.t ->
  ?supervision:Compass_util.Pool.supervision ->
  Graph.t ->
  weights ->
  Tensor.t array ->
  Tensor.t array
(** The unique exit node's tensors, one per batch sample, from one
    traversal of the graph — each layer runs over all N inputs before
    the next layer starts, amortizing weight-array traffic.  With
    [pool], the batch is fanned across the pool's domains (one im2col
    scratch per domain for the whole traversal, order-preserving map),
    and results are
    bit-identical for any worker count; sample [i]'s output never
    depends on the rest of the batch.  [?supervision] forwards the
    worker-recovery policy to the pool (evaluation is pure, so a
    supervised retry reproduces the sample bit-identically); failpoint
    site [executor.batch] marks each batch entry.  Raises
    [Invalid_argument] on an empty batch, several exits or shape
    mismatches, {!Cancelled} on budget expiry (checked between layers —
    a whole-batch layer either completes for every sample or has not
    started). *)

val apply_node :
  ?engine:engine ->
  ?scratch:Im2col.scratch ->
  Graph.t ->
  weights ->
  Graph.node ->
  Tensor.t list ->
  Tensor.t
(** Execute a single node given its ordered input tensors — the primitive
    shared with the partitioned executor.  Weighted nodes validate their
    weight array size and raise one located diagnostic naming the node
    id, layer kind and geometry, and the expected-vs-actual element
    counts.  [scratch] reuses an im2col patch buffer across calls (one
    per domain). *)
