(** Facade over the LPDDR3 model: the one description of the external
    memory.  Every DRAM number in the compiler comes from here, on the
    LPDDR3-1600 timing ({!Timing.lpddr3_1600}) and the replay's own
    energy model ({!Controller.default_energy}).

    [simulate] is the trace-accurate path (the DRAMsim3 substitute);
    [analytic_*] are the closed-form streaming approximations.  The
    estimator and the ISA simulator both charge DRAM time and energy
    through [analytic_*]; the replay is the trace-accurate cross-check,
    and tests assert the two agree on streaming workloads. *)

val simulate : Trace.record list -> Controller.stats
(** Replay a bulk trace through the bank-state controller. *)

val analytic_seconds : float -> float
(** Streaming transfer time: request overhead + bytes at ~90% of the peak
    data-bus bandwidth (row-miss gaps cost about a tenth on the streaming
    mapping). *)

val analytic_energy_j : float -> float
(** Streaming energy: per-burst read energy, amortized activates and
    background power over the streaming time. *)

val pp_stats : Format.formatter -> Controller.stats -> unit
