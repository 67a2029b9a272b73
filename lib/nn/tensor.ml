type t = {
  shape : Shape.t;
  data : float array;
}

let create shape f = { shape; data = Array.init (Shape.elements shape) f }

let shape t = t.shape
let to_array t = Array.copy t.data
let dims t =
  match t.shape with
  | Shape.Feature_map { channels; height; width } -> (channels, height, width)
  | Shape.Vector _ -> invalid_arg "Tensor: expected a feature map"

let get_chw t ~c ~h ~w =
  let channels, height, width = dims t in
  if c < 0 || c >= channels || h < 0 || h >= height || w < 0 || w >= width then
    invalid_arg "Tensor.get_chw: out of range";
  t.data.((c * height * width) + (h * width) + w)

(* 0 outside the feature map: implements zero padding. *)
let at_padded t ~height ~width ~c ~h ~w =
  if h < 0 || h >= height || w < 0 || w >= width then 0.
  else t.data.((c * height * width) + (h * width) + w)

let max_abs_diff a b =
  if a.shape <> b.shape then invalid_arg "Tensor.max_abs_diff: shape mismatch";
  let worst = ref 0. in
  Array.iteri (fun i x -> worst := max !worst (abs_float (x -. b.data.(i)))) a.data;
  !worst

let equal ?(eps = 1e-9) a b = a.shape = b.shape && max_abs_diff a b <= eps

let same_bits a b =
  a.shape = b.shape
  && Array.for_all2
       (fun x y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
       a.data b.data

let out_dim ~size ~kernel ~stride ~padding = ((size + (2 * padding) - kernel) / stride) + 1

let conv2d (conv : Layer.conv) ~weights input =
  let in_c, height, width = dims input in
  if in_c <> conv.Layer.in_channels then invalid_arg "Tensor.conv2d: channel mismatch";
  let { Layer.in_channels; out_channels; kernel_h; kernel_w; stride; padding; groups } =
    conv
  in
  (* Weight layout: out_c x (in_c/groups) x kh x kw; output channel [oc]
     reads only the input channels of its group. *)
  let group_in = in_channels / groups in
  let group_out = out_channels / groups in
  if Array.length weights <> out_channels * group_in * kernel_h * kernel_w then
    invalid_arg "Tensor.conv2d: weight size mismatch";
  let oh = out_dim ~size:height ~kernel:kernel_h ~stride ~padding in
  let ow = out_dim ~size:width ~kernel:kernel_w ~stride ~padding in
  let out = Array.make (out_channels * oh * ow) 0. in
  for oc = 0 to out_channels - 1 do
    let group = oc / group_out in
    let ic_base = group * group_in in
    for y = 0 to oh - 1 do
      for x = 0 to ow - 1 do
        let acc = ref 0. in
        for g = 0 to group_in - 1 do
          let ic = ic_base + g in
          for ky = 0 to kernel_h - 1 do
            for kx = 0 to kernel_w - 1 do
              let h = (y * stride) + ky - padding in
              let w = (x * stride) + kx - padding in
              let v = at_padded input ~height ~width ~c:ic ~h ~w in
              let wgt =
                weights.((((oc * group_in) + g) * kernel_h * kernel_w)
                         + (ky * kernel_w) + kx)
              in
              acc := !acc +. (v *. wgt)
            done
          done
        done;
        out.((oc * oh * ow) + (y * ow) + x) <- !acc
      done
    done
  done;
  { shape = Shape.feature_map ~channels:out_channels ~height:oh ~width:ow; data = out }

let linear ~in_features ~out_features ~weights input =
  (match input.shape with
  | Shape.Vector { features } when features = in_features -> ()
  | _ -> invalid_arg "Tensor.linear: input mismatch");
  if Array.length weights <> in_features * out_features then
    invalid_arg "Tensor.linear: weight size mismatch";
  let out = Array.make out_features 0. in
  for o = 0 to out_features - 1 do
    let acc = ref 0. in
    for i = 0 to in_features - 1 do
      acc := !acc +. (weights.((o * in_features) + i) *. input.data.(i))
    done;
    out.(o) <- !acc
  done;
  { shape = Shape.vector out_features; data = out }

(* Fast path: im2col + cache-blocked GEMM, bit-identical to [conv2d]
   (same per-output-element accumulation order; see Im2col). *)
let conv2d_gemm ?scratch (conv : Layer.conv) ~weights input =
  let in_c, height, width = dims input in
  if in_c <> conv.Layer.in_channels then invalid_arg "Tensor.conv2d: channel mismatch";
  let group_in = conv.Layer.in_channels / conv.Layer.groups in
  if
    Array.length weights
    <> conv.Layer.out_channels * group_in * conv.Layer.kernel_h * conv.Layer.kernel_w
  then invalid_arg "Tensor.conv2d: weight size mismatch";
  let data, oh, ow = Im2col.conv ?scratch conv ~weights ~input:input.data ~height ~width in
  {
    shape = Shape.feature_map ~channels:conv.Layer.out_channels ~height:oh ~width:ow;
    data;
  }

(* Fast path for [linear], bit-identical (see Im2col). *)
let linear_gemm ~in_features ~out_features ~weights input =
  (match input.shape with
  | Shape.Vector { features } when features = in_features -> ()
  | _ -> invalid_arg "Tensor.linear: input mismatch");
  if Array.length weights <> in_features * out_features then
    invalid_arg "Tensor.linear: weight size mismatch";
  {
    shape = Shape.vector out_features;
    data = Im2col.linear ~weights ~input:input.data ~in_features ~out_features;
  }

(* One window walk for both pools, as a monomorphic float loop (no
   closure call or polymorphic compare per element).  Padding reads as
   [0.]; the max keeps [Stdlib.max]'s exact semantics,
   [if a >= b then a else b], NaN and signed zeros included. *)
let pool ~is_max ~kernel ~stride ~padding input =
  let channels, height, width = dims input in
  let oh = out_dim ~size:height ~kernel ~stride ~padding in
  let ow = out_dim ~size:width ~kernel ~stride ~padding in
  let n = float_of_int (kernel * kernel) in
  let out = Array.make (channels * oh * ow) 0. in
  for c = 0 to channels - 1 do
    for y = 0 to oh - 1 do
      for x = 0 to ow - 1 do
        let acc = ref (if is_max then neg_infinity else 0.) in
        for ky = 0 to kernel - 1 do
          for kx = 0 to kernel - 1 do
            let h = (y * stride) + ky - padding in
            let w = (x * stride) + kx - padding in
            let v =
              if h < 0 || h >= height || w < 0 || w >= width then 0.
              else Array.unsafe_get input.data ((c * height * width) + (h * width) + w)
            in
            acc := if not is_max then !acc +. v else if !acc >= v then !acc else v
          done
        done;
        out.((c * oh * ow) + (y * ow) + x) <- (if is_max then !acc else !acc /. n)
      done
    done
  done;
  { shape = Shape.feature_map ~channels ~height:oh ~width:ow; data = out }

let max_pool = pool ~is_max:true
let avg_pool = pool ~is_max:false

let global_avg_pool input =
  let channels, height, width = dims input in
  let n = float_of_int (height * width) in
  let out = Array.make channels 0. in
  for c = 0 to channels - 1 do
    let acc = ref 0. in
    for h = 0 to height - 1 do
      for w = 0 to width - 1 do
        acc := !acc +. get_chw input ~c ~h ~w
      done
    done;
    out.(c) <- !acc /. n
  done;
  { shape = Shape.vector channels; data = out }

let relu t =
  let data = Array.create_float (Array.length t.data) in
  for i = 0 to Array.length data - 1 do
    let x = Array.unsafe_get t.data i in
    Array.unsafe_set data i (if 0. >= x then 0. else x)
  done;
  { t with data }

let add a b =
  if a.shape <> b.shape then invalid_arg "Tensor.add: shape mismatch";
  let data = Array.create_float (Array.length a.data) in
  for i = 0 to Array.length data - 1 do
    Array.unsafe_set data i (Array.unsafe_get a.data i +. Array.unsafe_get b.data i)
  done;
  { a with data }

let concat = function
  | [] -> invalid_arg "Tensor.concat: empty"
  | first :: _ as tensors ->
    let _, height, width = dims first in
    let channels =
      List.fold_left
        (fun acc t ->
          let c, h, w = dims t in
          if h <> height || w <> width then invalid_arg "Tensor.concat: spatial mismatch";
          acc + c)
        0 tensors
    in
    let data = Array.concat (List.map (fun t -> t.data) tensors) in
    { shape = Shape.feature_map ~channels ~height ~width; data }

let flatten t = { shape = Shape.vector (Array.length t.data); data = t.data }

let pp_stats ppf t =
  let lo = Array.fold_left min infinity t.data in
  let hi = Array.fold_left max neg_infinity t.data in
  let mean = Array.fold_left ( +. ) 0. t.data /. float_of_int (Array.length t.data) in
  Format.fprintf ppf "%s [%g, %g] mean %g" (Shape.to_string t.shape) lo hi mean
