(** On-chip bus interconnect between PIM cores and the global memory.

    The paper uses a shared bus (Sec. IV-A1); all inter-core and
    core-to-global-memory traffic serializes over it. *)

type t = {
  bandwidth_bytes_per_s : float;
  base_latency_s : float;  (** Arbitration + flight time per transfer. *)
  energy_per_byte_j : float;
}

val default : t
(** 32 GB/s shared bus, 10 ns arbitration, 4 pJ/byte. *)

val transfer_time_s : t -> bytes:float -> float
(** Latency for one transfer of [bytes] (base latency + serialization). *)

val transfer_energy_j : t -> bytes:float -> float
