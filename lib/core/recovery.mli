(** Self-healing execution: runtime fault detection and bounded-escalation
    recovery.

    Executes a compiled plan functionally (like [Partition_exec]) on
    weights quantized to the chip's cell precision, with the fault sites
    of the plan's scenario ({!Inject}) physically corrupting resident
    codes.  Before each layer's MVM an ABFT checksum pass ({!Abft})
    verifies every partition unit; on a mismatch recovery escalates:

    + {b retry}, up to 2 times per faulty layer — transient stuck-at
      cells clear on re-read.  Retries follow {!Compass_util.Retry}: the
      backoff starts at 1e-4 s and doubles per attempt.  It is
      {e modeled}, never slept: it is reported in [Retried] actions and
      [backoff_total_s];
    + {b remap}, up to 4 times per request — retire the faulty core
      (localized via the plan's replica-0 mapping) and adapt the plan
      with [Compiler.repair], so the unit's weights are reprogrammed on
      spare capacity and read clean;
    + {b degrade} — flag the output but keep serving, when no spare
      capacity or remap remains.

    Because detection is exact integer comparison and recovery restores
    pristine codes, a recovered run is {e bit-identical} to the
    fault-free reference under any single persistent cell fault, and a
    clean run reports zero detections.  All events surface as
    [recovery.*] metrics counters and [recovery.*] trace spans. *)

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
  ?seed:int ->
  ?faults:Compass_arch.Fault.t ->
  weights:Compass_nn.Executor.weights ->
  input:Compass_nn.Tensor.t ->
  Compiler.t ->
  report
(** [run ~weights ~input plan] executes one inference under the fault
    scenario (default: the plan's own; sites realized from [seed],
    default 0).  Raises [Invalid_argument] on missing weights or a model
    without exactly one input/output. *)

val pp_action : Format.formatter -> action -> unit
val pp_report : Format.formatter -> report -> unit
