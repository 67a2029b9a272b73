(** Im2col lowering of convolutions to cache-blocked GEMM over flat
    float arrays — the fast inference engine behind
    [Tensor.conv2d_gemm]/[linear_gemm].

    The contract that makes this usable under COMPASS's bit-for-bit
    equivalence proofs: every output element is produced by {e exactly
    the same sequence of float operations} as the naive reference
    kernels in [Tensor].  Each group's patches are packed into panels of
    4 output pixels interleaved per reduction index
    ([buf.(panel*4k + 4i + lane)]), the index running in the naive
    accumulation order (group-local input channel, kernel row, kernel
    column), with padding positions and the lanes past the last pixel
    stored as literal [0.].  A 4-pixel x 2-output-channel micro-kernel
    (4x1 for an odd last channel) keeps 8 independent accumulator
    chains, each the sequential sum [0. +. x0*w0 +. x1*w1 ...] with the
    naive operand order ([patch *. weight]; [weight *. input] for linear
    layers), and stores only the real lanes of the last panel.  Blocking
    never crosses the reduction dimension.  The one case outside the
    source's control: a product of two NaNs with different payloads
    keeps whichever the compiler's instruction choice picks.

    When [Metrics] is enabled the engine records [infer.gemm_ns]
    (nanoseconds inside GEMM inner loops) and [infer.im2col_bytes]
    (bytes of panels packed, the last panel's zero lanes included);
    disabled, instrumentation costs a single atomic load per call. *)

type scratch
(** A reusable patch buffer.  Not thread-safe: use one scratch per
    domain (e.g. via [Pool.map_init]). *)

val create_scratch : unit -> scratch
(** An empty scratch; grown on first use, never shrunk. *)

val conv :
  ?scratch:scratch ->
  Layer.conv ->
  weights:float array ->
  input:float array ->
  height:int ->
  width:int ->
  float array * int * int
(** [conv c ~weights ~input ~height ~width] lowers the grouped /
    strided / padded convolution to per-group panel packing + the 4x2
    micro-kernel (one path for every group shape, depthwise included)
    and returns [(output, out_height, out_width)] in the naive kernel's
    CHW layout.
    [input] is one sample, channel-major; [weights] is
    [out_c * (in_c/groups) * kh * kw].  Bit-identical to
    [Tensor.conv2d].  Raises [Invalid_argument] on size mismatches. *)

val linear :
  weights:float array ->
  input:float array ->
  in_features:int ->
  out_features:int ->
  float array
(** Dense layer over a flat vector, bit-identical to [Tensor.linear].
    Raises [Invalid_argument] on size mismatches. *)
