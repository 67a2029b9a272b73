(** Memory controller: replays bulk trace records against the per-bank
    state machines, arbitrates the shared data bus and schedules refresh
    windows.

    Addresses are row-interleaved: sequential bursts stream across a full
    row, then move to the next bank, for maximal row-buffer hits on bulk
    transfers.  Replay goes one row-buffer run at a time.  A run is a
    stretch of a record's consecutive bursts in one (bank, row): the rest
    of the row, up to [row_bytes / burst_bytes] bursts.  The run's first
    burst takes the full bank/bus/refresh step; the row hits after it
    share one issue spacing and one data-bus stall, so they advance the
    cursor and every counter in O(1), split only where a refresh falls due
    inside the run.  {!run_reference} keeps the burst-by-burst loop as the
    oracle, and the two return equal {!stats}.

    The model is throughput-oriented: requests are replayed back-to-back
    (the queue is never empty), which matches how the compiler uses DRAM —
    bulk weight and activation streams whose cost is bandwidth-bound. *)

type energy_model = {
  activate_j : float;  (** Per ACT command. *)
  read_burst_j : float;  (** Per read burst (includes IO). *)
  write_burst_j : float;
  refresh_j : float;  (** Per all-bank refresh. *)
  background_w : float;  (** Standby power while the trace executes. *)
}

val default_energy : energy_model

type stats = {
  cycles : int;  (** Memory cycles from first command to last data beat. *)
  seconds : float;
  bytes : float;
  reads : int;  (** Burst count. *)
  writes : int;
  row_hits : int;
  row_misses : int;
  activates : int;
  refreshes : int;
  bus_stall_cycles : int;
      (** Cycles bursts spent waiting for the shared data bus after their
          bank was ready. *)
  energy_j : float;
  background_j : float;
}

val row_hit_rate : stats -> float
(** Hits over total bursts; 0 on an empty trace. *)

val effective_bandwidth : stats -> float
(** Bytes per second over the busy window; 0 on an empty trace. *)

val run :
  ?timing:Timing.t ->
  ?energy:energy_model ->
  Trace.record list ->
  stats
(** Replay a trace one row-buffer run at a time.  Raises
    [Invalid_argument] if a record exceeds the device capacity. *)

val run_reference :
  ?timing:Timing.t ->
  ?energy:energy_model ->
  Trace.record list ->
  stats
(** The same replay one burst at a time: the reference {!run} is tested
    against (equal [stats], floats bit-equal).  Its cost is linear in
    bursts, so use {!run} everywhere else. *)
