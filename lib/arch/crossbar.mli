(** Crossbar (CIM macro) geometry, timing and energy.

    The evaluation models the 16nm IMC-SRAM prototype of Jia et al.
    (ISSCC'21): a 256x256 array of 1-bit cells computing with 4-bit weights
    (4 cells per weight, bit-sliced along columns) and 4-bit activations
    (bit-serial inputs).  A macro therefore stores 256x64 logical weights =
    8 KB, which reproduces the paper's chip capacities exactly
    (16 cores x 9 macros x 8 KB = 1.125 MB for chip S). *)

type t = {
  rows : int;  (** Physical wordlines (input lines). *)
  cols : int;  (** Physical bitlines (1-bit cells per row). *)
  cell_bits : int;  (** Bits stored per cell. *)
  weight_bits : int;  (** Weight precision; must be a multiple of [cell_bits]. *)
  activation_bits : int;  (** Input precision (bit-serial). *)
  mvm_latency_s : float;
      (** One full-array matrix-vector multiply: four bit-serial input
          phases including ADC readout of every column group (400 ns by
          default). *)
  row_write_latency_s : float;  (** Programming one wordline. *)
  mvm_energy_j : float;  (** Energy of one full-array MVM. *)
  write_energy_per_bit_j : float;
}

val default : t
(** The 256x256 / 4-bit configuration used throughout the paper. *)

val make :
  ?rows:int ->
  ?cols:int ->
  ?cell_bits:int ->
  ?weight_bits:int ->
  ?activation_bits:int ->
  ?mvm_latency_s:float ->
  ?row_write_latency_s:float ->
  ?mvm_energy_j:float ->
  ?write_energy_per_bit_j:float ->
  unit ->
  t
(** Parameterized constructor (paper Sec. V-B: eNVM technologies are modelled
    by changing write latency/energy).  Raises [Invalid_argument] on
    non-positive dimensions or if [weight_bits] is not a positive multiple of
    [cell_bits]. *)

val cols_per_weight : t -> int
(** Physical columns occupied by one logical weight. *)

val logical_cols : t -> int
(** Logical weight columns per macro ([cols / cols_per_weight]). *)

val capacity_bytes : t -> float
(** Weight bytes stored by a full macro (8 KB for [default]). *)

val tile_grid : t -> rows:int -> cols:int -> int * int
(** [tile_grid xbar ~rows ~cols] is the [(row_blocks, col_blocks)] grid of
    macros needed to hold a [rows] x [cols] logical weight matrix. *)

val write_latency_s : t -> float
(** Programming a full macro ([rows] wordline writes). *)

val write_energy_j : t -> bits:float -> float
(** Energy to program [bits] cell-bits. *)
