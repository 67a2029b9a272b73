(** Per-bank state machine: open row tracking and command timing.

    Banks follow an open-page policy (rows stay open until a conflicting
    access precharges them), which rewards the streaming access patterns the
    scheduler produces for weight and activation transfers. *)

type t

type outcome = {
  issue_cycle : int;  (** When the column command issued. *)
  data_cycle : int;  (** When the burst starts on the data bus. *)
  row_hit : bool;
  activated : bool;  (** An ACT command was needed. *)
  precharged : bool;  (** A PRE command was needed. *)
}

val create : Timing.t -> t

val access : t -> now:int -> row:int -> write:bool -> outcome
(** [access bank ~now ~row ~write] performs one burst access at memory
    cycle [now] (or later if the bank is busy), updating the bank state and
    returning the timing outcome.  Row must be non-negative. *)

val block_until : t -> int -> unit
(** [block_until bank cycle] prevents any command before [cycle] (used for
    refresh windows). *)

val set_ready : t -> int -> unit
(** [set_ready bank cycle] sets the earliest cycle of the next command:
    the controller's closed-form replay of a run of row hits, which moves
    the bank exactly as that many {!access} hits would. *)
