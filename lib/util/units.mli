(** Formatting of physical quantities (bytes, time, energy, rates).

    The simulator computes in SI base units: seconds, joules, bytes.
    These helpers render them with a sensible magnitude prefix for reports
    and benchmark output. *)

val mib : float
(** 1024 * 1024 bytes. *)

val pp_rate : Format.formatter -> float -> unit
(** Render a throughput in samples per second, e.g. ["431.2 inf/s"]. *)

val bytes_to_string : float -> string
(** Render a byte count, e.g. ["1.12 MB"].  Uses binary (1024) prefixes to
    match the paper's capacity figures. *)

val time_to_string : float -> string
(** Render a duration in seconds, e.g. ["12.8 us"]. *)

val energy_to_string : float -> string
(** Render an energy in joules, e.g. ["3.2 mJ"]. *)
