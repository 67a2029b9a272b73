(** In-memory computing technology presets (paper Sec. V-B).

    The evaluation uses an IMC-SRAM prototype, but the compiler extends to
    emerging non-volatile memories by re-parameterizing the crossbar's
    write path: ReRAM pays slow, energy-hungry SET/RESET cycles and has
    finite endurance; MRAM writes faster than ReRAM but still an order of
    magnitude above SRAM.  Because COMPASS controls how often weights are
    rewritten, per-cell endurance becomes a first-class compilation
    metric. *)

type t = {
  name : string;
  row_write_latency_s : float;
  write_energy_per_bit_j : float;
  endurance_cycles : float option;
      (** Writes a cell tolerates before wear-out; [None] = unlimited
          (SRAM). *)
  retention : string;  (** Informal volatility note for reports. *)
}

val reram : t
(** HfOx-class ReRAM: ~10 us row programming, ~100 pJ/bit, 1e6-cycle
    endurance. *)

val presets : t list
(** 16nm IMC-SRAM (the paper's evaluation target), [reram], and
    STT-MRAM (~2 us row programming, ~30 pJ/bit, effectively unlimited
    endurance but costly writes). *)

val by_name : string -> t
(** Case-insensitive.  Raises [Not_found]. *)

val chip : t -> Config.chip -> Config.chip
(** Re-target a chip preset to the technology (same cores/macros/power
    envelope, different write behaviour). *)

val lifetime_s : t -> rewrites_per_cell_per_s:float -> float option
(** Expected time until the most-rewritten cell exceeds the endurance
    budget; [None] when endurance is unlimited.  Raises
    [Invalid_argument] on a negative rate; an idle part (rate 0) returns
    [Some infinity]. *)
