(** ABFT column checksums over integer weight codes.

    At unit-generation time every resident code block gains a checksum
    row: the per-column sums of its signed weight codes.  Verification
    re-reads the column sums (on hardware, one extra MVM driving the
    all-ones vector through the macro in the integer domain) and compares
    them against the stored row with exact integer equality.

    Exactness is the point: a single corrupted cell changes exactly one
    column sum by a nonzero delta ({!Inject.corrupt_code} guarantees the
    corrupted code differs), so single-cell faults are detected with
    {e zero false negatives}, and clean blocks can never miscompare
    ({e zero false positives}) — there is no floating-point tolerance to
    tune.  A mismatch localizes the fault to (unit, column); the mapping
    then names the faulty core/macro. *)

type mismatch = {
  unit_index : int;
  col : int;  (** Local column within the unit. *)
  expected : int;  (** Stored checksum-row entry. *)
  actual : int;  (** Column sum read back. *)
}

val checksum_row : rows:int -> cols:int -> int array -> int array
(** Per-column code sums of a column-major block
    ([codes.(c * rows + r)]).  Raises [Invalid_argument] on a size
    mismatch. *)

val verify :
  unit_index:int ->
  rows:int ->
  cols:int ->
  codes:int array ->
  checksum:int array ->
  mismatch list
(** Mismatching columns in ascending order; [] iff the block is clean. *)

val check_ops_per_mvm : macro_ops:int -> int
(** VFU-rate element operations one ABFT check adds per MVM: the
    all-ones probe pass plus the comparison against the checksum row —
    [2 * macro_ops].  Shared by the scheduler ([Check] emission) and the
    estimator so predicted and simulated overhead agree. *)
