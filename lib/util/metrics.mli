(** Typed counters, gauges and histograms with per-domain buffers.

    Counters are integer sums; because addition is associative and
    commutative, the merged {!snapshot} is independent of how increments
    were distributed across {!Pool} worker domains.  Gauges are floats
    with last-write-wins semantics (a global set-sequence makes the merge
    deterministic).  Histograms ({!observe}) are power-of-two-bucketed
    sample distributions whose bucket counts also merge by summation, so
    derived quantiles are worker-count-independent too.  A name is
    permanently one kind; mixing raises [Invalid_argument].

    Disabled — the default, unless the [COMPASS_METRICS] environment
    variable is set to anything other than ["0"] or the empty string —
    every entry point is a single atomic load and records nothing.
    Metrics are pure observation and never feed back into the
    computation.  The metric-name catalogue lives in docs/FORMATS.md. *)

type value =
  | Int of int  (** counter *)
  | Float of float  (** gauge *)

val enabled : unit -> bool
val enable : unit -> unit
val disable : unit -> unit

val reset : unit -> unit
(** Drop all recorded values (all domains).  Call only while no worker
    domain is inside an instrumented region. *)

val add : string -> int -> unit
(** [add name n] adds [n] to a counter, creating it at 0 first.  A hit on
    an existing counter allocates nothing. *)

val incr : string -> unit
(** [add name 1]. *)

val set : string -> float -> unit
(** Set a gauge; the latest set (across all domains) wins. *)

val observe : string -> float -> unit
(** Record one sample into a histogram (e.g. a request latency in
    seconds).  Samples land in power-of-two buckets, so the memory cost
    is a small fixed array per (domain, name) and the cross-domain merge
    is an associative bucket-count sum.  The serving runtime feeds
    [serve.latency_s] through this. *)

val quantile : string -> float -> float option
(** [quantile name q] estimates the [q]-quantile ([0. <= q <= 1.]) of a
    histogram from its merged buckets: the returned value is the upper
    edge of the bucket where the cumulative count crosses [q], an
    over-estimate by at most 2x (one bucket).  [None] when [name] has no
    samples.  Raises [Invalid_argument] on a [q] outside [0, 1] or a
    name bound to a counter or gauge. *)

val snapshot : unit -> (string * value) list
(** All metrics merged across domain buffers, sorted by name.  A
    histogram [h] appears as derived entries [h.count] (Int) and
    [h.p50] / [h.p99] (Float, {!quantile} estimates). *)

val find_int : string -> int option

val value_to_string : value -> string
