(** Memory access traces.

    The instruction scheduler emits one bulk record per weight block,
    activation load or activation store; the controller expands each record
    into device bursts.  This mirrors the paper's flow of "generating a
    memory trace from the scheduled instructions and feeding it into
    DRAMsim3". *)

type kind =
  | Read
  | Write

type record = {
  kind : kind;
  addr : int;  (** Byte address of the first burst. *)
  bytes : int;  (** Transfer size; must be positive. *)
  tag : string;  (** Provenance, e.g. ["weights:P0"] or ["act:conv2_1"]. *)
}

val read : ?tag:string -> addr:int -> bytes:int -> unit -> record
val write : ?tag:string -> addr:int -> bytes:int -> unit -> record
(** Constructors; raise [Invalid_argument] on negative address or
    non-positive size. *)

val total_bytes : record list -> float

