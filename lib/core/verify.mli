(** Independent plan verification.

    [check] re-derives the legality invariants every compiled plan must
    satisfy — full unit coverage, per-core (fault-adjusted effective)
    capacity, replication consistency, span placeability, acyclic
    pipelined dataflow, endurance accounting — from first principles and
    reports every discrepancy as a structured {!violation}.

    The verifier deliberately shares {e no code} with the subsystems whose
    output it judges: span placement is re-checked with its own first-fit
    packer over {!Unit_gen} tile data and {!Compass_arch.Fault} effective
    capacities rather than by calling [Mapping] or [Replication], and
    endurance is re-accumulated from the per-span [tiles_per_core]
    evidence rather than read back through the estimator.  A bug in the
    mapping stack therefore cannot hide itself by also corrupting the
    check.  ([Dataflow] span-IO {e claims} inside the plan are judged
    against the producer-anchor ordering rule, not recomputed with the
    code that made them.)

    Violations are data, not exceptions: a service wrapping the compiler
    can log, count and render them without catching anything. *)

type violation =
  | Batch_mismatch of { plan_batch : int; perf_batch : int }
      (** The performance record was evaluated for a different batch. *)
  | Coverage of { expected_units : int; covered_units : int }
      (** The partition group does not cover the decomposition exactly
          (contiguity and non-overlap are structural in [Partition.t];
          a wrong total means truncated or overlong coverage). *)
  | Span_sequence of { index : int; expected : (int * int) option; actual : (int * int) option }
      (** [perf.spans] does not list the group's partitions in order
          ([None] = missing on that side). *)
  | Io_span_mismatch of { span : int * int; io_start : int; io_stop : int }
      (** A span's IO record describes a different span. *)
  | Replication_underflow of { span : int * int; layer : string; count : int }
      (** A replication count below 1. *)
  | Foreign_replication of { span : int * int; layer : string }
      (** Replication assigned to a layer with no unit in the span. *)
  | Tile_accounting of { span : int * int; placed : int; required : int }
      (** Placed tiles ([sum tiles_per_core]) disagree with
          [sum (unit tiles x layer replication)] over the span. *)
  | Core_count_mismatch of { span : int * int; got : int; expected : int }
      (** [tiles_per_core] is not sized to the chip's core count. *)
  | Dead_core_used of { span : int * int; core : int; tiles : int }
      (** Tiles placed on a core the fault scenario marks dead. *)
  | Core_overcapacity of { span : int * int; core : int; tiles : int; capacity : int }
      (** A core's placed tiles exceed its effective macro capacity. *)
  | Chip_overcapacity of { span : int * int; tiles : int; capacity : int }
      (** The span's total placed tiles exceed the chip's effective
          capacity. *)
  | Unplaceable_span of { span : int * int; reason : string }
      (** The verifier's own first-fit packing cannot place the span's
          replicated units on the (degraded) cores at all. *)
  | Dataflow_order of { span : int * int; tensor : string; producer_home : int }
      (** A load whose producing tensor is not available yet (producer
          homed at or after the span start and not a model input), or a
          store claimed for a tensor produced outside the span — either
          would deadlock the forward pipeline. *)
  | Endurance_accounting of { field : string; reported : float; recomputed : float }
      (** An endurance field disagrees with re-accumulation from the
          per-span placement evidence. *)
  | Endurance_budget_exceeded of { budget : float; worst_writes_per_batch : int }
      (** The most-rewritten macro exceeds the scenario's endurance
          budget within a single batch. *)

val check : Compiler.t -> violation list
(** All violations found in the plan, in check order (whole-plan checks
    first, then per-span, then endurance).  An empty list means the plan
    satisfies every invariant the verifier knows. *)

val render_violation : violation -> string
(** One human-readable line, e.g.
    ["span [3,7): core 5 holds 12 tiles but only 9 are usable"]. *)

val render : violation list -> string
(** Multi-line report; ["plan satisfies all verifier invariants"] when
    empty. *)
