(** Optimization objectives and fitness extraction (paper Sec. III-C1).

    The user picks the fitness the GA minimizes; partition-group fitness
    (PGF) is the sum of the partitions' fitness, and the per-partition value
    also feeds the partition score used to pick mutation victims. *)

type objective =
  | Latency  (** Batch makespan (the paper's throughput fitness). *)
  | Energy  (** Dynamic energy per batch. *)
  | Edp  (** Latency x energy surrogate. *)
  | Wear
      (** Latency plus a macro-programming wear penalty
          ([Estimator.span_cost.wear_cost_s]): favors partitionings that
          rewrite fewer macros per inference, extending ReRAM/PCM
          lifetime. *)

val objective_of_string : string -> objective
(** Accepts "latency", "throughput", "energy", "power", "edp", "wear",
    "endurance" (case insensitive).  Raises [Invalid_argument]
    otherwise. *)

val objective_to_string : objective -> string

val span_fitness : objective -> Estimator.span_cost -> float
(** Lower is better; strictly positive for non-trivial spans. *)

val spans_fitness : objective -> Estimator.span_cost list -> float
(** PGF: the sum of [span_fitness] over a group's partitions, folded left
    to right. *)

val group_fitness : objective -> Estimator.perf -> float
(** [spans_fitness] of the costs of the group's [perf.spans]. *)

val population_profile :
  objective -> Estimator.span_cost list array -> total_units:int -> float array
(** The prefix-summed population mean of the m(x) vector of Sec. III-C2,
    over a population given as each individual's spans, where each unit
    inherits its partition's fitness divided by the partition's unit
    count.  Cell [i] is the sum of that mean over units [0 .. i-1], so the
    result has length [total_units + 1] and is the [population_profile]
    that {!partition_scores} reads.  Each unit's mean is accumulated one
    individual at a time, in array order, with no per-individual array. *)

val partition_scores :
  population_profile:float array -> objective -> Estimator.span_cost list -> float array
(** R for every partition of an individual, given its spans:
    [f(P) / E_population(sum of m over P's span)].
    [population_profile] is the prefix sum of the population-mean m(x)
    (length [total_units + 1]).  Partitions whose expected span fitness is
    zero score 1. *)
