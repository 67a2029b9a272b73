(** Facade over the LPDDR3 model.

    [simulate] is the trace-accurate path (the DRAMsim3 substitute);
    [analytic_*] expose the closed-form streaming approximations used inside
    the GA fitness loop, where replaying a trace per candidate would be
    prohibitive.  Tests assert the two agree within a small factor on
    streaming workloads. *)

val simulate :
  ?timing:Timing.t ->
  ?energy:Controller.energy_model ->
  Trace.record list ->
  Controller.stats
(** Replay a bulk trace through the bank-state controller. *)

val analytic_seconds : ?timing:Timing.t -> float -> float
(** Streaming transfer time: request overhead + bytes at ~90% of the peak
    data-bus bandwidth (row-miss gaps cost about a tenth on the streaming
    mapping). *)

val analytic_energy_j :
  ?timing:Timing.t -> ?energy:Controller.energy_model -> float -> float
(** Streaming energy: per-burst read energy plus amortized activates. *)

val pp_stats : Format.formatter -> Controller.stats -> unit
