(** Deterministic realization of runtime cell faults.

    A {!Compass_arch.Fault.t} carries *counts* of transient stuck-at
    cells, persistent weight flips, and a conductance-drift rate; this
    module turns them into concrete fault {e sites} — (unit, row, col,
    corruption) tuples — drawn without replacement from the model's
    global cell index space using a seed, so a scenario plus a seed is a
    reproducible set of corrupted crossbar cells.

    Sites are purely positional: binding a site to the core that holds
    its unit (and un-binding it when recovery remaps the unit) is the
    {!Recovery} engine's job. *)

type kind =
  | Stuck_at of int  (** The cell reads this code regardless of input. *)
  | Bit_flip of int  (** Bit index flipped in the offset-binary code. *)
  | Drift of int  (** Stored level displaced by [±1]. *)

type site = {
  unit_index : int;
  row : int;  (** Local row within the unit (0-based). *)
  col : int;  (** Local column within the unit (0-based). *)
  kind : kind;
  transient : bool;  (** True when the fault clears on retry. *)
}

val corrupt_code : bits:int -> kind -> int -> int
(** [corrupt_code ~bits kind code] applies the corruption to a signed
    weight code, clamped to the representable range.  The result is
    guaranteed to differ from [code], so every site is observable by an
    integer checksum comparison (zero false negatives). *)

val realize : Unit_gen.t -> faults:Compass_arch.Fault.t -> seed:int -> site list
(** Sites are listed transients first, then flips, then drift, all on
    distinct cells; a drift rate displaces [max 1 (ceil (rate * cells))]
    of the model's cells.  Raises [Invalid_argument] if more faults are
    requested than the model has cells. *)
