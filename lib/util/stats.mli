(** Small statistics helpers used by the estimator, the GA and the
    benchmark harness. *)

val mean : float list -> float
(** Arithmetic mean; 0 on the empty list. *)

val geomean : float list -> float
(** Geometric mean of positive values; 0 on the empty list.  Raises
    [Invalid_argument] if any value is non-positive. *)

val minimum : float list -> float
(** Smallest element.  Raises [Invalid_argument] on the empty list. *)

val maximum : float list -> float
(** Largest element.  Raises [Invalid_argument] on the empty list. *)

val percentile : float -> float list -> float
(** [percentile p xs] is the [p]-th percentile (0 <= p <= 100) using
    nearest-rank on the sorted list.  Raises [Invalid_argument] on the empty
    list or out-of-range [p]. *)
