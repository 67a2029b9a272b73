(** Per-component energy of the chip, shared by the estimator and the
    simulator.

    All functions take aggregate operation counts and return joules.
    External memory is not charged here: both models charge it through
    [Compass_dram.Dram.analytic_energy_j]. *)

val mvm_j : Config.chip -> macro_ops:float -> float
(** Energy of [macro_ops] full-array crossbar MVM operations. *)

val weight_write_j : Config.chip -> bytes:float -> float
(** Cell-programming energy for [bytes] of weights (excludes the DRAM read
    and bus transfer, accounted separately). *)

val vfu_j : Config.chip -> ops:float -> float
(** Energy of [ops] vector element operations. *)

val bus_j : Config.chip -> bytes:float -> float
(** On-chip bus transfer energy. *)

val static_j : Config.chip -> seconds:float -> float
(** Background energy of the whole chip over a duration. *)
