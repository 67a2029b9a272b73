(** Fault scenarios for a PIM chip: per-core health status and optional
    per-macro write-endurance budgets.

    A scenario is immutable once built. The compiler threads a scenario
    through {!Compass_core} ([Validity.build ?faults],
    [Mapping.pack ?faults], [Compiler.compile ?faults]) so plans route
    around dead cores and respect degraded capacities; the estimator uses
    the endurance budget to project device lifetime. *)

type core_status =
  | Healthy  (** full [macros_per_core] capacity *)
  | Dead  (** core unusable; capacity 0 *)
  | Degraded of int  (** only [k >= 1] macros usable *)

type t

(** [make statuses] builds a scenario for a chip with
    [Array.length statuses] cores. The array is copied.
    @param endurance_budget
      remaining writes per macro before wear-out (e.g. ReRAM ~1e6).
    @param transient_cells
      number of stuck-at crossbar cells that clear on retry (runtime
      transients; sites are realized by [Compass_core.Inject]).
    @param weight_flips
      number of persistent single-bit weight-code flips.
    @param drift
      conductance-drift rate in (0, 1]: the fraction of cells whose
      stored code is displaced by one level (persistent).
    @raise Invalid_argument
      on [Degraded k] with [k < 1], a non-positive budget, negative
      cell-fault counts, or a drift rate outside (0, 1]. *)
val make :
  ?endurance_budget:float ->
  ?transient_cells:int ->
  ?weight_flips:int ->
  ?drift:float ->
  core_status array ->
  t

(** All-healthy scenario with no endurance budget ([is_trivial] holds). *)
val healthy : cores:int -> t

val cores : t -> int
val status : t -> int -> core_status
val endurance_budget : t -> float option

(** Per-core usable macros, index = core id. *)
val capacities : t -> macros_per_core:int -> int array

val total_capacity : t -> macros_per_core:int -> int

(** Requested stuck-at cell count (clear on retry). *)
val transient_cells : t -> int

(** Requested persistent single-bit weight-flip count. *)
val weight_flips : t -> int

(** Conductance-drift rate in (0, 1], if any. *)
val drift : t -> float option

(** True iff the scenario carries runtime cell faults (transient,
    flip, or drift) that {!Compass_core.Inject} must realize. *)
val has_cell_faults : t -> bool

(** True iff every core is healthy, there is no endurance budget, and
    no cell faults — the scenario does not constrain compilation at
    all. *)
val is_trivial : t -> bool

(** {1 Textual fault specs}

    Grammar (the CLI's [--faults] argument, also in docs/FORMATS.md):
    {v
  spec    := "none" | clause (';' clause)*
  clause  := "dead"      ':' core (',' core)*
           | "degraded"  ':' core '=' k (',' core '=' k)*
           | "random"    ':' kind '=' n (',' kind '=' n)*    kind := dead | degraded
           | "endurance" ':' budget
           | "transient" ':' n
           | "flip"      ':' n
           | "drift"     ':' rate
    v}
    Fixed [dead]/[degraded] clauses name cores explicitly; [random]
    clauses draw distinct victims among the remaining healthy cores using
    the seed passed to {!of_string}, so a spec plus a seed is a
    reproducible scenario. *)

type spec

(** @raise Compass_util.Located.Error
      on bad syntax, at line 1 and the offending token's column of the
      spec; the error names no source, which the caller stamps on. *)
val parse : string -> spec

val spec_to_string : spec -> string

(** Parse [s] and instantiate it on a concrete chip shape. Random victims
    and degradation levels are drawn deterministically from [seed].
    @raise Invalid_argument
      if a core index is out of range, listed twice, degraded to at least
      the nominal capacity, or more random faults are requested than
      healthy cores remain. *)
val of_string : string -> seed:int -> cores:int -> macros_per_core:int -> t

(** Serialize a realized scenario back to a spec with fixed clauses only
    (seed-independent): [parse (to_string t)] realizes to [t] again. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit
