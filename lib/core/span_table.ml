open Compass_nn

type t = {
  unit_layer : Graph.node array;
  cols_prefix : int array;
  unit_lo : int array;
  unit_hi : int array;
  anchor : int array;
  rows : int array;
  cols : int array;
  row_blocks : int array;
  mvms : int array;
  attached : Graph.node array;
  vector_ops : int array;
  succ : Graph.node list array;
}

let ceil_div a b = (a + b - 1) / b

let create (units : Unit_gen.t) =
  let model = units.Unit_gen.model in
  let xbar = units.Unit_gen.chip.Compass_arch.Config.crossbar in
  let m = Unit_gen.unit_count units in
  let nnodes = Graph.node_count model in
  let unit_layer = Array.make m (-1) in
  let cols_prefix = Array.make (m + 1) 0 in
  let unit_lo = Array.make nnodes (-1) in
  let unit_hi = Array.make nnodes (-1) in
  (* Units come in ascending order, so a layer's first unit sets its low
     end and its last one its high end. *)
  Array.iteri
    (fun i u ->
      let node = u.Unit_gen.layer in
      unit_layer.(i) <- node;
      cols_prefix.(i + 1) <- cols_prefix.(i) + (u.Unit_gen.col_hi - u.Unit_gen.col_lo);
      if unit_lo.(node) < 0 then unit_lo.(node) <- i;
      unit_hi.(node) <- i)
    units.Unit_gen.units;
  let rows = Array.make nnodes 0 in
  let cols = Array.make nnodes 0 in
  let row_blocks = Array.make nnodes 0 in
  let mvms = Array.make nnodes 0 in
  List.iter
    (fun node ->
      let op = (Graph.layer model node).Layer.op in
      rows.(node) <- Layer.weight_rows op;
      cols.(node) <- Layer.weight_cols op;
      row_blocks.(node) <- ceil_div rows.(node) xbar.Compass_arch.Crossbar.rows;
      mvms.(node) <- Graph.mvms_of model node)
    (Graph.weighted_nodes model);
  let topo = Graph.topo_order model in
  (* A weighted node is anchored at its last unit, any other node at the
     latest anchor among its producers. *)
  let anchor = Array.make nnodes (-1) in
  List.iter
    (fun node ->
      anchor.(node) <-
        (if unit_hi.(node) >= 0 then unit_hi.(node)
         else
           List.fold_left (fun acc p -> Int.max acc anchor.(p)) (-1) (Graph.preds model node)))
    topo;
  let attached_rev =
    List.fold_left
      (fun acc node ->
        let layer = Graph.layer model node in
        if Layer.is_weighted layer.Layer.op then acc
        else match layer.Layer.op with Layer.Input _ -> acc | _ -> node :: acc)
      [] topo
  in
  let attached = Array.of_list (List.rev attached_rev) in
  let vector_ops =
    Array.init nnodes (fun node ->
        match (Graph.layer model node).Layer.op with
        | Layer.Input _ -> 0
        | _ -> Graph.vector_ops_of model node)
  in
  let succ = Array.init nnodes (fun node -> Graph.succs model node) in
  {
    unit_layer;
    cols_prefix;
    unit_lo;
    unit_hi;
    anchor;
    rows;
    cols;
    row_blocks;
    mvms;
    attached;
    vector_ops;
    succ;
  }
