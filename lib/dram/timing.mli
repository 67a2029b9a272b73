(** LPDDR3 device timing parameters.

    The paper feeds a scheduled-instruction memory trace into DRAMsim3 with
    an LPDDR3 8GB configuration; this module carries the equivalent timing
    constants (in memory-clock cycles at 800 MHz for LPDDR3-1600). *)

type t = {
  tck_s : float;  (** Memory clock period (1.25 ns at 1600 MT/s). *)
  burst_length : int;  (** Transfers per burst (8, DDR). *)
  bus_width_bits : int;  (** Channel width (x32). *)
  cl : int;  (** CAS (read) latency, cycles. *)
  cwl : int;  (** CAS write latency, cycles. *)
  trcd : int;  (** ACT to CAS delay. *)
  trp : int;  (** Precharge time. *)
  tras : int;  (** Minimum row-open time. *)
  trfc : int;  (** Refresh cycle time. *)
  trefi : int;  (** Average refresh interval. *)
  banks : int;
  row_bytes : int;  (** Page size per bank. *)
  capacity_bytes : float;
}

val lpddr3_1600 : t
(** The evaluation configuration: LPDDR3-1600 x32, 8 GB, 8 banks, 2 KB
    pages. *)

val make :
  ?tck_s:float ->
  ?burst_length:int ->
  ?bus_width_bits:int ->
  ?cl:int ->
  ?cwl:int ->
  ?trcd:int ->
  ?trp:int ->
  ?tras:int ->
  ?trfc:int ->
  ?trefi:int ->
  ?banks:int ->
  ?row_bytes:int ->
  ?capacity_bytes:float ->
  unit ->
  t
(** Parameterized constructor.  Raises [Invalid_argument] unless every
    parameter is positive, the bus width is whole bytes, [row_bytes] is a
    multiple of {!burst_bytes} and [trfc < trefi]. *)

val burst_bytes : t -> int
(** Bytes moved per burst ([bus_width/8 * burst_length] = 32). *)

val burst_cycles : t -> int
(** Data-bus occupancy of one burst ([burst_length / 2] for DDR). *)

val peak_bandwidth_bytes_per_s : t -> float
(** Data-bus limit (6.4 GB/s for [lpddr3_1600]). *)

val cycles_to_seconds : t -> int -> float
