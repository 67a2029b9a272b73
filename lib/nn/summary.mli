(** Model size accounting (paper Table II). *)

type t = {
  model : string;
  conv_params : int;
  linear_params : int;
  conv_mb : float;  (** Conv weight storage in MiB at the given precision. *)
  linear_mb : float;
  total_mb : float;
  weighted_layers : int;
}

val of_graph : ?weight_bits:int -> Graph.t -> t
(** [of_graph g] computes the size summary; [weight_bits] defaults to 4,
    matching the paper's 4-bit evaluation precision. *)

val table2 : ?weight_bits:int -> Graph.t list -> Compass_util.Table.t
(** Render the summaries as a Table II lookalike (Linear/Conv/Total MB). *)
