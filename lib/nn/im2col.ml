(* Reusable patch buffer: grown on demand, never shrunk.  The packer
   overwrites every element it uses, so stale contents are harmless. *)
type scratch = { mutable buf : float array }

let create_scratch () = { buf = [||] }

let ensure scratch n =
  if Array.length scratch.buf < n then scratch.buf <- Array.make n 0.;
  scratch.buf

let out_dim ~size ~kernel ~stride ~padding = ((size + (2 * padding) - kernel) / stride) + 1

(* Tile the panels so one tile (tile * 4k floats) stays L2-resident
   while every output channel of the group streams over it. *)
let cache_block_bytes = 131072

let tile_for ~k = max 2 (cache_block_bytes / (32 * k))

(* Sequential dot product, [a.(ai+i) *. b.(bi+i)] accumulated in index
   order — the exact operation sequence of the naive kernels, which is
   what makes the lowered results bit-identical. *)
let dot a ai b bi k =
  let acc = ref 0. in
  for i = 0 to k - 1 do
    acc := !acc +. (Array.unsafe_get a (ai + i) *. Array.unsafe_get b (bi + i))
  done;
  !acc

(* Pack the patches of one convolution group into panels of 4 output
   pixels: reduction index [i] (group-local input channel, ky, kx — the
   naive kernel's accumulation order) of pixel [q] lands at
   [buf.((q/4)*4k + 4i + q mod 4)], so the writes are sequential and
   each panel's 4 receptive fields are read together.  Padding positions
   are literal 0., and so are the lanes past [p]: their origin row
   ([row]) is one no kernel offset brings into bounds. *)
let pack_group (conv : Layer.conv) ~input ~height ~width ~group ~buf ~oh ~ow =
  let { Layer.in_channels; kernel_h; kernel_w; stride; padding; groups; _ } = conv in
  let group_in = in_channels / groups in
  let p = oh * ow in
  let[@inline] at c ih iw =
    if ih >= 0 && ih < height && iw >= 0 && iw < width then
      Array.unsafe_get input (c + (ih * width) + iw)
    else 0.
  in
  let row q = if q < p then (q / ow * stride) - padding else height in
  let col q = (q mod ow * stride) - padding in
  let d = ref 0 in
  for panel = 0 to ((p + 3) / 4) - 1 do
    let q = 4 * panel in
    let h0 = row q and h1 = row (q + 1) and h2 = row (q + 2) and h3 = row (q + 3) in
    let w0 = col q and w1 = col (q + 1) and w2 = col (q + 2) and w3 = col (q + 3) in
    for gi = 0 to group_in - 1 do
      let c = ((group * group_in) + gi) * height * width in
      for ky = 0 to kernel_h - 1 do
        for kx = 0 to kernel_w - 1 do
          let i = !d in
          Array.unsafe_set buf i (at c (h0 + ky) (w0 + kx));
          Array.unsafe_set buf (i + 1) (at c (h1 + ky) (w1 + kx));
          Array.unsafe_set buf (i + 2) (at c (h2 + ky) (w2 + kx));
          Array.unsafe_set buf (i + 3) (at c (h3 + ky) (w3 + kx));
          d := i + 4
        done
      done
    done
  done

(* One group's GEMM: out rows [oc_base, oc_base + group_out) over the
   packed panels.  A 4-pixel x 2-channel micro-kernel keeps 8
   independent accumulator chains (4x1 for an odd last channel), walking
   one running panel index; each chain is still the sequential sum
   [0. +. x0*w0 +. x1*w1 ...] of the naive kernel, so per-element results
   are unchanged.  [store] drops the lanes of the last panel past [p]. *)
let gemm_group ~buf ~weights ~out ~k ~p ~group_out ~oc_base ~tile =
  let panels = (p + 3) / 4 in
  let[@inline] store o q a0 a1 a2 a3 =
    Array.unsafe_set out (o + q) a0;
    if q + 1 < p then Array.unsafe_set out (o + q + 1) a1;
    if q + 2 < p then Array.unsafe_set out (o + q + 2) a2;
    if q + 3 < p then Array.unsafe_set out (o + q + 3) a3
  in
  let t0 = ref 0 in
  while !t0 < panels do
    let t1 = Int.min panels (!t0 + tile) in
    let j = ref 0 in
    while !j < group_out do
      let oc = oc_base + !j in
      let w0 = oc * k in
      let o0 = oc * p in
      if !j + 1 < group_out then begin
        for panel = !t0 to t1 - 1 do
          let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
          let b0 = ref 0. and b1 = ref 0. and b2 = ref 0. and b3 = ref 0. in
          let r = ref (panel * 4 * k) in
          for wi = w0 to w0 + k - 1 do
            let x0 = Array.unsafe_get buf !r and x1 = Array.unsafe_get buf (!r + 1) in
            let x2 = Array.unsafe_get buf (!r + 2) and x3 = Array.unsafe_get buf (!r + 3) in
            let wa = Array.unsafe_get weights wi and wb = Array.unsafe_get weights (wi + k) in
            a0 := !a0 +. (x0 *. wa);
            a1 := !a1 +. (x1 *. wa);
            a2 := !a2 +. (x2 *. wa);
            a3 := !a3 +. (x3 *. wa);
            b0 := !b0 +. (x0 *. wb);
            b1 := !b1 +. (x1 *. wb);
            b2 := !b2 +. (x2 *. wb);
            b3 := !b3 +. (x3 *. wb);
            r := !r + 4
          done;
          store o0 (4 * panel) !a0 !a1 !a2 !a3;
          store (o0 + p) (4 * panel) !b0 !b1 !b2 !b3
        done
      end
      else
        for panel = !t0 to t1 - 1 do
          let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
          let r = ref (panel * 4 * k) in
          for wi = w0 to w0 + k - 1 do
            let wa = Array.unsafe_get weights wi in
            a0 := !a0 +. (Array.unsafe_get buf !r *. wa);
            a1 := !a1 +. (Array.unsafe_get buf (!r + 1) *. wa);
            a2 := !a2 +. (Array.unsafe_get buf (!r + 2) *. wa);
            a3 := !a3 +. (Array.unsafe_get buf (!r + 3) *. wa);
            r := !r + 4
          done;
          store o0 (4 * panel) !a0 !a1 !a2 !a3
        done;
      j := !j + 2
    done;
    t0 := t1
  done

let now () = Unix.gettimeofday ()

let record_gemm_ns seconds =
  Compass_util.Metrics.add "infer.gemm_ns" (int_of_float (seconds *. 1e9))

let conv ?scratch (conv : Layer.conv) ~weights ~input ~height ~width =
  let { Layer.in_channels; out_channels; kernel_h; kernel_w; stride; padding; groups } =
    conv
  in
  let group_in = in_channels / groups in
  let group_out = out_channels / groups in
  if Array.length weights <> out_channels * group_in * kernel_h * kernel_w then
    invalid_arg "Im2col.conv: weight size mismatch";
  if Array.length input <> in_channels * height * width then
    invalid_arg "Im2col.conv: input size mismatch";
  let k = group_in * kernel_h * kernel_w in
  let oh = out_dim ~size:height ~kernel:kernel_h ~stride ~padding in
  let ow = out_dim ~size:width ~kernel:kernel_w ~stride ~padding in
  let p = oh * ow in
  let packed = (p + 3) / 4 * 4 * k in
  let buf =
    match scratch with
    | Some s -> ensure s packed
    | None -> Array.make packed 0.
  in
  let out = Array.create_float (out_channels * p) in
  let tile = tile_for ~k in
  let metrics_on = Compass_util.Metrics.enabled () in
  let gemm_s = ref 0. in
  for g = 0 to groups - 1 do
    pack_group conv ~input ~height ~width ~group:g ~buf ~oh ~ow;
    let t0 = if metrics_on then now () else 0. in
    gemm_group ~buf ~weights ~out ~k ~p ~group_out ~oc_base:(g * group_out) ~tile;
    if metrics_on then gemm_s := !gemm_s +. (now () -. t0)
  done;
  if metrics_on then begin
    Compass_util.Metrics.add "infer.im2col_bytes" (8 * groups * packed);
    record_gemm_ns !gemm_s
  end;
  (out, oh, ow)

(* Linear layers need no packing: the input vector already is the patch.
   Four output features are accumulated concurrently, sharing each input
   load; the naive operand order (weight *. input) is preserved. *)
let linear ~weights ~input ~in_features:k ~out_features:n =
  if Array.length weights <> k * n then invalid_arg "Im2col.linear: weight size mismatch";
  if Array.length input <> k then invalid_arg "Im2col.linear: input size mismatch";
  let metrics_on = Compass_util.Metrics.enabled () in
  let t0 = if metrics_on then now () else 0. in
  let out = Array.make n 0. in
  let o = ref 0 in
  while !o + 3 < n do
    let q = !o in
    let w0 = q * k and w1 = (q + 1) * k and w2 = (q + 2) * k and w3 = (q + 3) * k in
    let a0 = ref 0. and a1 = ref 0. and a2 = ref 0. and a3 = ref 0. in
    for i = 0 to k - 1 do
      let x = Array.unsafe_get input i in
      a0 := !a0 +. (Array.unsafe_get weights (w0 + i) *. x);
      a1 := !a1 +. (Array.unsafe_get weights (w1 + i) *. x);
      a2 := !a2 +. (Array.unsafe_get weights (w2 + i) *. x);
      a3 := !a3 +. (Array.unsafe_get weights (w3 + i) *. x)
    done;
    Array.unsafe_set out q !a0;
    Array.unsafe_set out (q + 1) !a1;
    Array.unsafe_set out (q + 2) !a2;
    Array.unsafe_set out (q + 3) !a3;
    o := q + 4
  done;
  while !o < n do
    Array.unsafe_set out !o (dot weights (!o * k) input 0 k);
    incr o
  done;
  if metrics_on then record_gemm_ns (now () -. t0);
  out
