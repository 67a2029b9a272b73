(** Per-core instruction programs. *)

type t = {
  core_id : int;
  instrs : Instr.t list;
}

val make : core_id:int -> Instr.t list -> t
(** Raises [Invalid_argument] on a negative core id. *)

val length : t -> int

val instruction_mix : t list -> (string * int) list
(** Histogram of instruction kinds across programs, for reports. *)

val validate : cores:int -> t list -> (unit, string) result
(** Checks: core ids unique and within [0, cores); every [Send] has a
    matching [Recv] with the same channel, byte count and src/dst pair. *)

val pp : Format.formatter -> t -> unit
