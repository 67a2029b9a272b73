module Located = Compass_util.Located

let strip_comment (l : Located.token) =
  match String.index_opt l.text '#' with
  | Some i -> { l with text = String.sub l.text 0 i }
  | None -> l

(* "key=value" attribute lists, both halves located. *)
let parse_attrs words =
  List.map
    (fun (w : Located.token) ->
      match Located.cut '=' w with
      | Some kv -> kv
      | None -> Located.at w "expected key=value, got %S" w.text)
    words

let int_attr attrs key =
  List.find_map
    (fun ((k : Located.token), v) ->
      if k.text <> key then None
      else Some (Located.int (Printf.sprintf "attribute %s: %S is not an integer" key) v))
    attrs

let require_int line attrs key =
  match int_attr attrs key with
  | Some n -> n
  | None -> Located.fail ~line "missing attribute %s" key

let known_attrs attrs allowed =
  List.iter
    (fun ((k : Located.token), _) ->
      if not (List.mem k.text allowed) then Located.at k "unknown attribute %s" k.text)
    attrs

let parse_shape (tok : Located.token) =
  let s = tok.text in
  let segments = String.split_on_char 'x' s in
  let dims = List.filter_map int_of_string_opt segments in
  if List.length dims <> List.length segments then
    Located.at tok "bad shape %S (expected CxHxW or N)" s;
  match dims with
  | [ c; h; w ] -> (
    try Shape.feature_map ~channels:c ~height:h ~width:w
    with Invalid_argument msg -> Located.at tok "bad shape %S: %s" s msg)
  | [ n ] -> (
    try Shape.vector n with Invalid_argument msg -> Located.at tok "bad shape %S: %s" s msg)
  | _ -> Located.at tok "bad shape %S (expected CxHxW or N)" s

(* --- statement parsing --- *)

type statement = {
  line : int;
  op : Located.token;
  name : Located.token;
  producers : Located.token list;
  attrs : (Located.token * Located.token) list;
}

(* "<op> <name> [from p1 p2 ...] [k=v ...]" *)
let parse_statement (text : Located.token) =
  match Located.words text with
  | [] -> None
  | op :: rest ->
    let line = text.line in
    let name, rest =
      match rest with
      | name :: rest -> (name, rest)
      | [] -> Located.fail ~line "operator %s needs a name" op.text
    in
    if op.text = "input" then
      (* shapes like 1x28x28 are not key=value attributes *)
      Some { line; op; name; producers = rest; attrs = [] }
    else
    let producers, attr_words =
      match rest with
      | { text = "from"; _ } :: rest ->
        let rec take acc = function
          | (w : Located.token) :: more when not (String.contains w.text '=') ->
            take (w :: acc) more
          | more -> (List.rev acc, more)
        in
        take [] rest
      | rest -> ([], rest)
    in
    Some { line; op; name; producers; attrs = parse_attrs attr_words }

let channels_of line g node =
  match Graph.shape_of g node with
  | Shape.Feature_map { channels; _ } -> channels
  | Shape.Vector _ -> Located.fail ~line "producer is a vector, expected a feature map"

let features_of line g node =
  match Graph.shape_of g node with
  | Shape.Vector { features } -> features
  | Shape.Feature_map _ -> Located.fail ~line "producer is a feature map, expected a vector"

let build_op st g inputs =
  let line = st.line in
  let op_name = st.op.text in
  (* Layer smart constructors validate their arguments with
     [Invalid_argument]; every call funnels through here so the complaint
     comes out located. *)
  let locate make =
    try make () with Invalid_argument msg -> Located.fail ~line "%s" msg
  in
  let one () =
    match inputs with
    | [ p ] -> p
    | _ -> Located.fail ~line "%s expects exactly one producer" op_name
  in
  let attr key default = Option.value ~default (int_attr st.attrs key) in
  let pool () =
    known_attrs st.attrs [ "kernel"; "stride"; "pad" ];
    let kernel = require_int line st.attrs "kernel" in
    let stride = attr "stride" kernel in
    let padding = attr "pad" 0 in
    ignore (one ());
    (kernel, stride, padding)
  in
  match op_name with
  | "input" -> Located.fail ~line "input handled separately"
  | "conv" ->
    known_attrs st.attrs [ "out"; "kernel"; "stride"; "pad"; "groups" ];
    let out_channels = require_int line st.attrs "out" in
    let kernel = require_int line st.attrs "kernel" in
    let stride = attr "stride" 1 in
    let padding = attr "pad" (kernel / 2) in
    let groups = attr "groups" 1 in
    let in_channels = channels_of line g (one ()) in
    locate (fun () ->
        Layer.conv ~stride ~padding ~groups ~in_channels ~out_channels kernel)
  | "depthwise" ->
    known_attrs st.attrs [ "kernel"; "stride"; "pad" ];
    let kernel = require_int line st.attrs "kernel" in
    let stride = attr "stride" 1 in
    let padding = attr "pad" (kernel / 2) in
    let channels = channels_of line g (one ()) in
    locate (fun () -> Layer.depthwise ~stride ~padding ~channels kernel)
  | "linear" ->
    known_attrs st.attrs [ "out" ];
    let out_features = require_int line st.attrs "out" in
    let in_features = features_of line g (one ()) in
    locate (fun () -> Layer.linear ~in_features ~out_features)
  | "maxpool" ->
    let kernel, stride, padding = pool () in
    locate (fun () -> Layer.max_pool ~padding ~kernel ~stride ())
  | "avgpool" ->
    let kernel, stride, padding = pool () in
    locate (fun () -> Layer.avg_pool ~padding ~kernel ~stride ())
  | "relu" ->
    ignore (one ());
    Layer.Relu
  | "bn" ->
    ignore (one ());
    Layer.Batch_norm
  | "dropout" ->
    ignore (one ());
    Layer.Dropout
  | "flatten" ->
    ignore (one ());
    Layer.Flatten
  | "gap" ->
    ignore (one ());
    Layer.Global_avg_pool
  | "add" ->
    if List.length inputs <> 2 then Located.fail ~line "add expects two producers";
    Layer.Add
  | "concat" ->
    if List.length inputs < 2 then
      Located.fail ~line "concat expects at least two producers";
    Layer.Concat
  | other -> Located.at st.op "unknown operator %s" other

let parse text =
  let g = ref None in
  let names : (string, Graph.node) Hashtbl.t = Hashtbl.create 32 in
  let handle raw =
    match parse_statement (strip_comment raw) with
    | None -> ()
    | Some st when st.op.text = "model" ->
      if !g <> None then Located.fail ~line:st.line "model declaration must come first";
      g := Some (Graph.create ~name:st.name.text ())
    | Some st ->
      let line = st.line in
      let graph =
        match !g with
        | Some graph -> graph
        | None ->
          let graph = Graph.create () in
          g := Some graph;
          graph
      in
      if Hashtbl.mem names st.name.text then
        Located.at st.name "duplicate node name %s" st.name.text;
      let node =
        if st.op.text = "input" then begin
          match st.producers with
          | [ shape ] -> (
            let input = Layer.Input (parse_shape shape) in
            try Graph.add graph st.name.text input
            with Invalid_argument msg -> Located.fail ~line "%s" msg)
          | _ -> Located.fail ~line "input needs exactly one shape"
        end
        else begin
          let inputs =
            List.map
              (fun (p : Located.token) ->
                match Hashtbl.find_opt names p.text with
                | Some n -> n
                | None -> Located.at p "unknown producer %s" p.text)
              st.producers
          in
          let op = build_op st graph inputs in
          try Graph.add graph ~inputs st.name.text op
          with Invalid_argument msg -> Located.fail ~line "%s" msg
        end
      in
      Hashtbl.add names st.name.text node
  in
  List.iter handle (Located.lines text);
  match !g with
  | None -> Located.fail "empty description"
  | Some graph -> (
    match Graph.validate graph with
    | Ok () -> graph
    | Error msg -> Located.fail "invalid model: %s" msg)

let parse_file path =
  Located.in_file path (fun () -> parse (Compass_util.Artifact.read_file path))

(* --- printing --- *)

let shape_token = function
  | Shape.Feature_map { channels; height; width } ->
    Printf.sprintf "%dx%dx%d" channels height width
  | Shape.Vector { features } -> string_of_int features

let op_line g node =
  let l = Graph.layer g node in
  let name = l.Layer.name in
  let from =
    match Graph.preds g node with
    | [] -> ""
    | ps -> " from " ^ String.concat " " (List.map (fun p -> (Graph.layer g p).Layer.name) ps)
  in
  match l.Layer.op with
  | Layer.Input shape -> Printf.sprintf "input %s %s" name (shape_token shape)
  | Layer.Conv { out_channels; kernel_h; stride; padding; groups; _ } ->
    Printf.sprintf "conv %s%s out=%d kernel=%d stride=%d pad=%d groups=%d" name from
      out_channels kernel_h stride padding groups
  | Layer.Linear { out_features; _ } ->
    Printf.sprintf "linear %s%s out=%d" name from out_features
  | Layer.Pool { kind; kernel; stride; padding } ->
    Printf.sprintf "%s %s%s kernel=%d stride=%d pad=%d"
      (match kind with Layer.Max -> "maxpool" | Layer.Avg -> "avgpool")
      name from kernel stride padding
  | Layer.Global_avg_pool -> Printf.sprintf "gap %s%s" name from
  | Layer.Batch_norm -> Printf.sprintf "bn %s%s" name from
  | Layer.Relu -> Printf.sprintf "relu %s%s" name from
  | Layer.Add -> Printf.sprintf "add %s%s" name from
  | Layer.Concat -> Printf.sprintf "concat %s%s" name from
  | Layer.Flatten -> Printf.sprintf "flatten %s%s" name from
  | Layer.Dropout -> Printf.sprintf "dropout %s%s" name from

let to_string g =
  let header = Printf.sprintf "model %s" (Graph.name g) in
  String.concat "\n" (header :: List.map (op_line g) (Graph.nodes g)) ^ "\n"
