(** Baseline partitioning schemes (paper Sec. IV-A2).

    - {b greedy} packs as many consecutive partition units as the chip
      allows before cutting, leaving almost no spare macros for
      replication;
    - {b layerwise} maps one Conv/Linear layer per partition (splitting
      layers that exceed the chip), attaching trailing non-mappable nodes
      to their producer's partition, and replicates aggressively inside
      each tiny partition at the cost of moving every intermediate feature
      through DRAM. *)

val greedy : Validity.t -> Partition.t
(** Maximal-span walk over the validity map. *)

val layerwise : Validity.t -> Partition.t
(** One layer (or feasible fraction of a layer) per partition. *)
