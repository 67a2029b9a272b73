(** Self-healing execution: runtime fault detection and bounded-escalation
    recovery.

    Executes a compiled plan functionally (like [Partition_exec]) on
    weights quantized to the chip's cell precision, with the fault sites
    of the plan's scenario ({!Inject}) physically corrupting resident
    codes.  Before each layer's MVM an ABFT checksum pass ({!Abft})
    verifies every partition unit; on a mismatch the policy engine
    escalates:

    + {b retry} with exponential backoff — transient stuck-at cells clear
      on re-read;
    + {b remap} — retire the faulty core (localized via the plan's
      replica-0 mapping) and adapt the plan with [Compiler.repair], so
      the unit's weights are reprogrammed on spare capacity and read
      clean;
    + {b degrade} — flag the output but keep serving, when no spare
      capacity remains or the request deadline expired.

    Because detection is exact integer comparison and recovery restores
    pristine codes, a recovered run is {e bit-identical} to the
    fault-free reference under any single persistent cell fault, and a
    clean run reports zero detections.  All events surface as
    [recovery.*] metrics counters and [recovery.*] trace spans. *)

type policy = {
  max_retries : int;  (** Retry attempts per faulty layer (default 2). *)
  max_remaps : int;  (** Core retirements per request (default 4). *)
  backoff_s : float;  (** Initial backoff (default 1e-4 s); doubles per attempt. *)
  allow_remap : bool;  (** False confines recovery to retry + degrade (default true). *)
  budget : Compass_util.Budget.t option;
      (** Per-request deadline (default none): when expired, retries and remaps stop and
          the run degrades instead of blocking the request.  Deadlines
          read the budget's own injectable clock — recovery never reads
          the wall clock directly. *)
}
(** Retries follow {!Compass_util.Retry}: [backoff_s] doubles per
    attempt, up to 60 s.  Backoff is {e modeled}, never slept: it is
    reported in [Retried] actions and [backoff_total_s]. *)

type action =
  | Detected of {
      node : Compass_nn.Graph.node;
      unit_index : int;
      col : int;
      core : int;  (** Localized faulty core under the current mapping. *)
    }
  | Retried of {
      node : Compass_nn.Graph.node;
      attempt : int;
      backoff_s : float;
    }
  | Remapped of {
      core : int;  (** Core retired by the repair. *)
      strategy : Compiler.repair_strategy;
    }
  | Degraded of { node : Compass_nn.Graph.node }

type outcome =
  | Clean  (** No detection fired. *)
  | Healed  (** Faults detected; output equals the fault-free run. *)
  | Degraded_output  (** Some corruption could not be recovered. *)

type report = {
  output : Compass_nn.Tensor.t;
  reference : Compass_nn.Tensor.t;  (** Fault-free run of the same path. *)
  outcome : outcome;
  bit_identical : bool;  (** [Tensor.same_bits output reference]. *)
  checks : int;  (** Per-unit ABFT verifications executed. *)
  detections : int;
  retries : int;
  remaps : int;
  degraded_layers : int;
  backoff_total_s : float;  (** Accumulated modeled backoff. *)
  actions : action list;  (** Escalation log in order. *)
  plan : Compiler.t;  (** Final plan — repaired if remaps happened. *)
  sites : Inject.site list;  (** Realized fault sites. *)
}

val run :
  ?policy:policy ->
  ?seed:int ->
  ?faults:Compass_arch.Fault.t ->
  weights:Compass_nn.Executor.weights ->
  input:Compass_nn.Tensor.t ->
  Compiler.t ->
  report
(** [run ~weights ~input plan] executes one inference under the fault
    scenario (default: the plan's own; sites realized from [seed],
    default 0).  Raises [Invalid_argument] on missing weights, a model
    without exactly one input/output, or a policy {!Compass_util.Retry.make}
    rejects. *)

val pp_action : Format.formatter -> action -> unit
val pp_report : Format.formatter -> report -> unit
