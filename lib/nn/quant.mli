(** Uniform symmetric quantization (the paper's 4-bit weight/activation
    assumption, Sec. IV-A2).

    Crossbar cells store low-precision weights; this module provides the
    fake-quantization used to study what 4-bit deployment does to a
    network's outputs, and the storage accounting the capacity model relies
    on. *)

type spec = {
  bits : int;
  scale : float;  (** Real value = scale * integer code. *)
}

val levels : int -> int
(** [levels bits] is the largest representable code magnitude,
    [2^(bits-1) - 1]; codes span [[-levels, levels]]. *)

val quantize : bits:int -> float array -> float array * spec
(** [quantize ~bits data] returns the fake-quantized array (values snapped
    to the [2^bits - 1]-level symmetric grid covering [max |x|]) and the
    spec.  All-zero input gets scale 1.  Raises [Invalid_argument] for
    [bits < 2]. *)

val quantize_weights : bits:int -> Executor.weights -> Executor.weights
(** Quantize every weight array (fresh table). *)

val mean_squared_error : original:float array -> quantized:float array -> float

val codes : spec -> float array -> int array
(** Integer codes of already-quantized values, each in
    [[-(2^(bits-1) - 1), 2^(bits-1) - 1]]. *)

val dequantize : spec -> int array -> float array
(** [dequantize spec codes] maps integer codes back to real values,
    [scale * code] — the exact inverse of {!codes} on already-quantized
    data.  The recovery path uses this to rebuild executable weights
    from stored cell codes. *)

val storage_bits : bits:int -> int -> int
(** Bits to store [n] values at the given precision. *)
