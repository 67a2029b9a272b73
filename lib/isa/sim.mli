(** Event-driven chip simulator.

    Executes one program per core against the shared bus and the external
    memory channel.  Timing model:

    - each core runs its instruction list in order;
    - bus transfers (weight fetches, activation loads/stores, sends) are
      serialized on the shared bus in grant order;
    - external memory behaves as the analytic streaming model during
      simulation; the emitted bulk trace can be replayed through
      [Compass_dram.Dram.simulate] for bank-accurate statistics;
    - [Recv] blocks until the matching [Send] has delivered; [Sync] is a
      counted barrier.

    Dispatch: each step runs the head instruction of the ready core with
    the earliest local time ([Float.compare]), the core listed first in
    the program list winning ties.  A core whose head instruction blocks
    waits without being retried until a [Send] on its [(channel, src,
    dst)] or the release of its barrier token makes it ready again, so
    shared resources (the bus, the external memory channel) are granted
    in this order.

    The simulator is the ground truth the analytic estimator is validated
    against in tests. *)

type event = {
  core : int;
  label : string;  (** Instruction kind, e.g. ["mvm"], ["weight_write"]. *)
  start_s : float;
  finish_s : float;
}

type fault_event = {
  at_s : float;
      (** Simulated fail-stop time (>= 0).  From then on, the core skips
          compute and memory instructions at zero cost (counted as dropped)
          but still participates in barriers and channel handshakes so the
          rest of the chip drains without deadlock.  An instruction already
          started when the fault hits completes (fail-stop between
          instructions). *)
  victim : int;  (** Core id. *)
}

val fail_stop : at_s:float -> victim:int -> fault_event

type result = {
  makespan_s : float;  (** Last core finish time. *)
  core_finish_s : (int * float) list;  (** Per-core completion times. *)
  bus_busy_s : float;  (** Accumulated bus occupancy. *)
  dram_trace : Compass_dram.Trace.record list;  (** In issue order. *)
  mvm_macro_ops : float;  (** Crossbar-array operations executed. *)
  vfu_ops : float;
  weight_bytes : float;
  load_bytes : float;
  store_bytes : float;
  energy_components : (string * float) list;
      (** Labelled: mvm, vfu, weight_program, bus, dram, static. *)
  energy_j : float;
  events : event list;
      (** Per-instruction execution intervals in dispatch order; feeds the
          timeline renderer. *)
  dead_cores : int list;
      (** Cores fail-stopped by a {!fault_event}, ascending. *)
  dropped_instructions : int;
      (** Instructions skipped (work lost) on dead cores. *)
  checks_run : int;  (** ABFT [Check] instructions executed. *)
}

exception Deadlock of string
(** Raised when no core can make progress (mismatched send/recv or a
    barrier that can never fill). *)

val run : ?fault_events:fault_event list -> Compass_arch.Config.chip -> Program.t list -> result
(** Raises [Deadlock] on communication errors and [Invalid_argument] when
    [Program.validate] fails or a fault event is malformed (negative time
    or core out of range); the fault-event diagnostic names the offending
    event index and value so the CLI can render it as a one-line exit-2
    user error. *)
