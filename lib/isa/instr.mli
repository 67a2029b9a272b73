(** Core instruction set.

    Instructions are *aggregate*: an [Mvm] carries the number of
    matrix-vector products it stands for rather than being unrolled per
    output pixel.  This keeps schedules compact (a ResNet18 batch would
    otherwise unroll to millions of instructions) while preserving the
    phase structure — weight write, load, compute, store — whose timing the
    simulator models.  PUMA-style unrolled ISAs carry the same information;
    the aggregation factor is explicit in each payload. *)

type t =
  | Weight_write of {
      macro_count : int;  (** Macros programmed by this core. *)
      bytes : float;  (** Logical weight bytes fetched and written. *)
      addr : int;  (** Source address in DRAM. *)
      tag : string;
    }
  | Load of {
      bytes : float;
      addr : int;  (** Global-memory (DRAM) source. *)
      tag : string;
    }
  | Store of {
      bytes : float;
      addr : int;
      tag : string;
    }
  | Mvm of {
      count : int;  (** Matrix-vector products. *)
      tiles : int;  (** Macros engaged in parallel per product. *)
      tag : string;
    }
  | Vfu of { ops : int }  (** Vector element operations. *)
  | Send of {
      bytes : float;
      dst : int;  (** Destination core. *)
      channel : int;  (** Matching key; receiver uses the same id. *)
    }
  | Recv of {
      bytes : float;
      src : int;
      channel : int;
    }
  | Sync of {
      token : int;
      parties : int;  (** Cores that must arrive before any proceeds. *)
    }
  | Check of {
      ops : int;  (** Checksum comparisons (VFU-rate element ops). *)
      tag : string;
    }
      (** ABFT column-checksum verification of the preceding MVM
          results, costed as VFU work. *)

val pp : Format.formatter -> t -> unit
