(** A planted interface for api_check's self-test; nothing compiles it. *)

type state =
  | Open  (** Built by production outside the owner: live. *)
  | Closed  (** Built only by the owner: live. *)
  | Sold_out  (** Only matched on in production, built only by a test: dead. *)

val sell : ?discount:float -> ?gift:bool -> ?note:string -> int -> float
(** [?discount] is passed by production: live.  [?gift] is passed only by
    a test: dead.  [?note] is passed only inside this module: dead. *)

val restock : ?hint:int -> unit -> state
(** [?hint] is passed by no one but allow-listed. *)
