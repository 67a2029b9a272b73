(** Hardware configurations (paper Table I).

    Three chip presets S/M/L share the core design and differ in macros per
    core, reproducing the paper's capacities (1.125 / 2.0 / 4.5 MB) and chip
    powers (1.57 / 2.80 / 6.30 W). *)

type core = {
  macros_per_core : int;
  vfus_per_core : int;  (** 12 vector functional units. *)
  vfu_power_w : float;  (** All VFUs of a core together (22.8 mW). *)
  vfu_energy_per_op_j : float;
  local_mem_banks : int;  (** 6 banks. *)
  local_mem_bytes : int;  (** Per bank (64 KB). *)
  local_mem_power_w : float;  (** 18.0 mW. *)
  control_power_w : float;  (** 8.0 mW. *)
  clock_hz : float;  (** 1 GHz core clock. *)
}

type external_memory = {
  bandwidth_bytes_per_s : float;  (** LPDDR3-1600 x32 peak: 6.4 GB/s. *)
  energy_per_byte_j : float;  (** Average access energy for streaming. *)
  request_overhead_s : float;  (** First-access latency of a bulk request. *)
  capacity_bytes : float;  (** 8 GB. *)
}

type chip = {
  label : string;
  cores : int;
  core : core;
  crossbar : Crossbar.t;
  bus : Interconnect.t;
  chip_power_w : float;  (** Total chip power from Table I. *)
  dram : external_memory;
}

val chip_s : chip
(** 16 cores x 9 macros = 1.125 MB. *)

val chip_m : chip
(** 16 cores x 16 macros = 2.0 MB. *)

val chip_l : chip
(** 16 cores x 36 macros = 4.5 MB. *)

val presets : (string * chip) list
(** [("S", chip_s); ("M", chip_m); ("L", chip_l)]. *)

val by_label : string -> chip
(** Case-insensitive preset lookup.  Raises [Not_found]. *)

val custom :
  label:string ->
  cores:int ->
  macros_per_core:int ->
  ?crossbar:Crossbar.t ->
  ?bus:Interconnect.t ->
  ?chip_power_w:float ->
  ?dram:external_memory ->
  unit ->
  chip
(** Build a non-preset chip; [chip_power_w] defaults to a linear
    interpolation from the per-component powers.  Raises [Invalid_argument]
    on non-positive core/macro counts. *)

val total_macros : chip -> int
val capacity_bytes : chip -> float
(** On-chip weight capacity. *)

val table1 : unit -> Compass_util.Table.t
(** Render the three presets as a Table I lookalike. *)

val pp_chip : Format.formatter -> chip -> unit
