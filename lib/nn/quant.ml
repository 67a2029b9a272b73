type spec = {
  bits : int;
  scale : float;
}

let levels bits = (1 lsl (bits - 1)) - 1

let quantize ~bits data =
  if bits < 2 then invalid_arg "Quant.quantize: bits < 2";
  let peak = Array.fold_left (fun acc x -> max acc (abs_float x)) 0. data in
  if peak = 0. then (Array.copy data, { bits; scale = 1. })
  else begin
    let q = float_of_int (levels bits) in
    let scale = peak /. q in
    let snapped = Array.map (fun x -> Float.round (x /. scale) *. scale) data in
    (snapped, { bits; scale })
  end

let quantize_weights ~bits weights =
  let out = Hashtbl.create (Hashtbl.length weights) in
  Hashtbl.iter (fun node data -> Hashtbl.add out node (fst (quantize ~bits data))) weights;
  out

let mean_squared_error ~original ~quantized =
  if Array.length original <> Array.length quantized then
    invalid_arg "Quant.mean_squared_error: length mismatch";
  if Array.length original = 0 then 0.
  else begin
    let acc = ref 0. in
    Array.iteri
      (fun i x ->
        let d = x -. quantized.(i) in
        acc := !acc +. (d *. d))
      original;
    !acc /. float_of_int (Array.length original)
  end

let codes spec data =
  Array.map
    (fun x ->
      let c = int_of_float (Float.round (x /. spec.scale)) in
      let bound = levels spec.bits in
      max (-bound) (min bound c))
    data

let dequantize spec codes = Array.map (fun c -> float_of_int c *. spec.scale) codes

let storage_bits ~bits n =
  if bits <= 0 || n < 0 then invalid_arg "Quant.storage_bits";
  bits * n
