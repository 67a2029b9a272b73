type t = {
  model : string;
  conv_params : int;
  linear_params : int;
  conv_mb : float;
  linear_mb : float;
  total_mb : float;
  weighted_layers : int;
}

let of_graph ?(weight_bits = 4) g =
  let classify (conv, lin) id =
    let params = Layer.weight_params (Graph.layer g id).Layer.op in
    match (Graph.layer g id).Layer.op with
    | Layer.Conv _ -> (conv + params, lin)
    | Layer.Linear _ -> (conv, lin + params)
    | _ -> (conv, lin)
  in
  let conv_params, linear_params = List.fold_left classify (0, 0) (Graph.nodes g) in
  let mb params =
    float_of_int params *. float_of_int weight_bits /. 8. /. Compass_util.Units.mib
  in
  {
    model = Graph.name g;
    conv_params;
    linear_params;
    conv_mb = mb conv_params;
    linear_mb = mb linear_params;
    total_mb = mb (conv_params + linear_params);
    weighted_layers = List.length (Graph.weighted_nodes g);
  }

let table2 ?(weight_bits = 4) graphs =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Network"; "Linear(MB)"; "Conv(MB)"; "Total(MB)"; "Weighted layers" ]
  in
  let row g =
    let s = of_graph ~weight_bits g in
    Table.add_row table
      [
        s.model;
        Printf.sprintf "%.3f" s.linear_mb;
        Printf.sprintf "%.3f" s.conv_mb;
        Printf.sprintf "%.3f" s.total_mb;
        string_of_int s.weighted_layers;
      ]
  in
  List.iter row graphs;
  table
