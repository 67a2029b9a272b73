(** Model graphs: a directed acyclic graph of layers.

    Nodes are created through [add], which forces producers to exist before
    consumers, so construction order is always a valid topological order;
    [validate] re-checks the invariants independently for graphs assembled
    by tests or generators. *)

type t

type node = int
(** Stable node identifier, dense from 0. *)

val create : ?name:string -> unit -> t
(** [create ~name ()] is an empty graph.  [name] labels reports. *)

val name : t -> string

val add : t -> ?inputs:node list -> string -> Layer.op -> node
(** [add t ~inputs name op] appends a layer consuming the given ordered
    producers and returns its node id.  Raises [Invalid_argument] if an
    input id does not exist yet or if the inferred shapes are inconsistent
    with [op]. *)

val layer : t -> node -> Layer.t
(** Raises [Invalid_argument] on an unknown id. *)

val preds : t -> node -> node list
(** Ordered producers of a node. *)

val succs : t -> node -> node list
(** Consumers of a node, in creation order. *)

val node_count : t -> int

val nodes : t -> node list
(** All nodes in creation (= topological) order. *)

val topo_order : t -> node list
(** A topological order recomputed by Kahn's algorithm; equals [nodes] for
    graphs built through [add] but also works on adversarial inputs.
    Raises [Invalid_argument] if the graph contains a cycle (only possible
    through misuse of internal state in tests). *)

val entry_nodes : t -> node list
(** Nodes without predecessors (the [Input] layers). *)

val exit_nodes : t -> node list
(** Nodes without successors (the model outputs). *)

val shape_of : t -> node -> Shape.t
(** Inferred output shape of a node (cached). *)

val weighted_nodes : t -> node list
(** Conv/Linear nodes in topological order. *)

val total_weight_params : t -> int
(** Sum of [Layer.weight_params] over the graph. *)

val weight_bytes : weight_bits:int -> t -> float
(** Total weight storage at the given precision. *)

val mvms_of : t -> node -> int
(** Per-sample MVM count of a node (0 for unweighted nodes). *)

val vector_ops_of : t -> node -> int
(** Per-sample VFU element-operation count of a node. *)

val validate : t -> (unit, string) result
(** Structural checks: edge endpoints exist, no cycle, every non-input node
    has at least one predecessor, shapes infer successfully. *)

val pp_summary : Format.formatter -> t -> unit
(** One line per layer: name, kind, output shape, parameters. *)

val to_dot : t -> string
(** Graphviz rendering: one box per layer (label = name, kind, output
    shape), weighted layers shaded; edges follow the dataflow. *)
