type conv = {
  in_channels : int;
  out_channels : int;
  kernel_h : int;
  kernel_w : int;
  stride : int;
  padding : int;
  groups : int;
}

type pool_kind =
  | Max
  | Avg

type op =
  | Input of Shape.t
  | Conv of conv
  | Linear of {
      in_features : int;
      out_features : int;
    }
  | Pool of {
      kind : pool_kind;
      kernel : int;
      stride : int;
      padding : int;
    }
  | Global_avg_pool
  | Batch_norm
  | Relu
  | Add
  | Concat
  | Flatten
  | Dropout

type t = {
  id : int;
  name : string;
  op : op;
}

let conv ?stride ?padding ?(groups = 1) ~in_channels ~out_channels k =
  if in_channels <= 0 || out_channels <= 0 || k <= 0 then
    invalid_arg "Layer.conv: non-positive dimension";
  if groups <= 0 || in_channels mod groups <> 0 || out_channels mod groups <> 0 then
    invalid_arg "Layer.conv: groups must divide both channel counts";
  let stride = Option.value stride ~default:1 in
  let padding = Option.value padding ~default:(k / 2) in
  if stride <= 0 || padding < 0 then invalid_arg "Layer.conv: bad stride/padding";
  Conv { in_channels; out_channels; kernel_h = k; kernel_w = k; stride; padding; groups }

let depthwise ?stride ?padding ~channels k =
  conv ?stride ?padding ~groups:channels ~in_channels:channels ~out_channels:channels k

let linear ~in_features ~out_features =
  if in_features <= 0 || out_features <= 0 then
    invalid_arg "Layer.linear: non-positive dimension";
  Linear { in_features; out_features }

let pool kind ?(padding = 0) ~kernel ~stride () =
  if kernel <= 0 || stride <= 0 || padding < 0 then
    invalid_arg "Layer.pool: bad geometry";
  Pool { kind; kernel; stride; padding }

let max_pool ?padding ~kernel ~stride () = pool Max ?padding ~kernel ~stride ()
let avg_pool ?padding ~kernel ~stride () = pool Avg ?padding ~kernel ~stride ()

let is_weighted = function
  | Conv _ | Linear _ -> true
  | Input _ | Pool _ | Global_avg_pool | Batch_norm | Relu | Add | Concat | Flatten
  | Dropout ->
    false

let weight_rows = function
  | Conv { in_channels; kernel_h; kernel_w; groups; _ } ->
    in_channels / groups * kernel_h * kernel_w
  | Linear { in_features; _ } -> in_features
  | Input _ | Pool _ | Global_avg_pool | Batch_norm | Relu | Add | Concat | Flatten
  | Dropout ->
    0

let weight_cols = function
  | Conv { out_channels; _ } -> out_channels
  | Linear { out_features; _ } -> out_features
  | Input _ | Pool _ | Global_avg_pool | Batch_norm | Relu | Add | Concat | Flatten
  | Dropout ->
    0

let weight_params op = weight_rows op * weight_cols op

let conv_out_dim ~size ~kernel ~stride ~padding =
  ((size + (2 * padding) - kernel) / stride) + 1

let one_input op = function
  | [ s ] -> s
  | inputs ->
    invalid_arg
      (Printf.sprintf "Layer.output_shape: %s expects 1 input, got %d" op
         (List.length inputs))

let output_shape op inputs =
  match op with
  | Input shape ->
    if inputs <> [] then invalid_arg "Layer.output_shape: Input takes no inputs";
    shape
  | Conv { in_channels; out_channels; kernel_h; kernel_w; stride; padding; groups = _ } -> (
    match one_input "Conv" inputs with
    | Shape.Vector _ -> invalid_arg "Layer.output_shape: Conv on a vector"
    | Shape.Feature_map { channels; height; width } ->
      if channels <> in_channels then
        invalid_arg
          (Printf.sprintf "Layer.output_shape: Conv expects %d channels, got %d"
             in_channels channels);
      let oh = conv_out_dim ~size:height ~kernel:kernel_h ~stride ~padding in
      let ow = conv_out_dim ~size:width ~kernel:kernel_w ~stride ~padding in
      Shape.feature_map ~channels:out_channels ~height:oh ~width:ow)
  | Linear { in_features; out_features } -> (
    match one_input "Linear" inputs with
    | Shape.Vector { features } ->
      if features <> in_features then
        invalid_arg
          (Printf.sprintf "Layer.output_shape: Linear expects %d features, got %d"
             in_features features);
      Shape.vector out_features
    | Shape.Feature_map _ ->
      invalid_arg "Layer.output_shape: Linear on a feature map (flatten first)")
  | Pool { kernel; stride; padding; kind = _ } -> (
    match one_input "Pool" inputs with
    | Shape.Vector _ -> invalid_arg "Layer.output_shape: Pool on a vector"
    | Shape.Feature_map { channels; height; width } ->
      let oh = conv_out_dim ~size:height ~kernel ~stride ~padding in
      let ow = conv_out_dim ~size:width ~kernel ~stride ~padding in
      Shape.feature_map ~channels ~height:oh ~width:ow)
  | Global_avg_pool -> (
    match one_input "Global_avg_pool" inputs with
    | Shape.Vector _ -> invalid_arg "Layer.output_shape: Global_avg_pool on a vector"
    | Shape.Feature_map { channels; _ } -> Shape.vector channels)
  | Batch_norm | Relu | Dropout -> one_input "elementwise" inputs
  | Add -> (
    match inputs with
    | [ a; b ] when Shape.equal a b -> a
    | [ _; _ ] -> invalid_arg "Layer.output_shape: Add of different shapes"
    | _ -> invalid_arg "Layer.output_shape: Add expects 2 inputs")
  | Concat -> (
    match inputs with
    | [] -> invalid_arg "Layer.output_shape: Concat expects inputs"
    | first :: _ -> (
      match first with
      | Shape.Vector _ -> invalid_arg "Layer.output_shape: Concat of vectors"
      | Shape.Feature_map { height; width; _ } ->
        let add_channels acc = function
          | Shape.Feature_map { channels; height = h; width = w } ->
            if h <> height || w <> width then
              invalid_arg "Layer.output_shape: Concat spatial mismatch";
            acc + channels
          | Shape.Vector _ -> invalid_arg "Layer.output_shape: Concat of vectors"
        in
        let channels = List.fold_left add_channels 0 inputs in
        Shape.feature_map ~channels ~height ~width))
  | Flatten ->
    let s = one_input "Flatten" inputs in
    Shape.vector (Shape.elements s)

let mvms_per_sample op inputs =
  match op with
  | Conv _ ->
    let out = output_shape op inputs in
    let h, w = Shape.spatial out in
    h * w
  | Linear _ -> 1
  | Input _ | Pool _ | Global_avg_pool | Batch_norm | Relu | Add | Concat | Flatten
  | Dropout ->
    0

let vector_ops_per_sample op inputs =
  match op with
  | Input _ | Dropout | Flatten | Concat -> 0
  | Conv _ | Linear _ | Batch_norm | Relu ->
    (* One element op per output activation: accumulate/scale/activate. *)
    Shape.elements (output_shape op inputs)
  | Add -> Shape.elements (output_shape op inputs)
  | Pool { kernel; _ } ->
    let out = output_shape op inputs in
    Shape.elements out * kernel * kernel
  | Global_avg_pool -> (
    match inputs with
    | [ s ] -> Shape.elements s
    | _ -> invalid_arg "Layer.vector_ops_per_sample: Global_avg_pool arity")

let op_kind = function
  | Input _ -> "input"
  | Conv _ -> "conv"
  | Linear _ -> "linear"
  | Pool { kind = Max; _ } -> "maxpool"
  | Pool { kind = Avg; _ } -> "avgpool"
  | Global_avg_pool -> "gap"
  | Batch_norm -> "bn"
  | Relu -> "relu"
  | Add -> "add"
  | Concat -> "concat"
  | Flatten -> "flatten"
  | Dropout -> "dropout"

