open Compass_nn

type partition_io = {
  start_ : int;
  stop : int;
  weighted_layers : Graph.node list;
  attached : Graph.node list;
  loads : (Graph.node * float) list;
  stores : (Graph.node * float) list;
  load_bytes : float;
  store_bytes : float;
}

type ctx = {
  units_ : Unit_gen.t;
  unit_lo : int array; (* per node; -1 for unweighted *)
  unit_hi : int array; (* inclusive; -1 for unweighted *)
  anchor : int array; (* home_unit per node *)
  frac_prefix : float array; (* per unit: prefix sum of column fractions *)
  tensor_bytes : float array;
  topo : Graph.node list;
  table : Span_table.t option;
}

let units ctx = ctx.units_
let table ctx = ctx.table

let context ?(span_table = true) (units_ : Unit_gen.t) =
  let model = units_.Unit_gen.model in
  let nnodes = Graph.node_count model in
  let m = Unit_gen.unit_count units_ in
  let unit_lo = Array.make nnodes (-1) in
  let unit_hi = Array.make nnodes (-1) in
  List.iter
    (fun (node, idxs) ->
      match idxs with
      | [] -> ()
      | first :: _ ->
        unit_lo.(node) <- first;
        unit_hi.(node) <- List.fold_left max first idxs)
    units_.Unit_gen.layer_units;
  (* Fraction of its layer's output each unit carries, as a prefix sum so a
     span's coverage of a layer is an O(1) lookup. *)
  let frac = Array.make m 0. in
  Array.iter
    (fun u ->
      let node = u.Unit_gen.index in
      let layer = u.Unit_gen.layer in
      let base = Unit_gen.col_fraction u model in
      let f =
        if u.Unit_gen.partial_sum then
          let rows = Layer.weight_rows (Graph.layer model layer).Layer.op in
          base
          *. float_of_int (u.Unit_gen.row_hi - u.Unit_gen.row_lo)
          /. float_of_int rows
        else base
      in
      frac.(node) <- f)
    units_.Unit_gen.units;
  let frac_prefix = Array.make (m + 1) 0. in
  for i = 0 to m - 1 do
    frac_prefix.(i + 1) <- frac_prefix.(i) +. frac.(i)
  done;
  let topo = Graph.topo_order model in
  let anchor = Array.make nnodes (-1) in
  List.iter
    (fun node ->
      if unit_hi.(node) >= 0 then anchor.(node) <- unit_hi.(node)
      else
        anchor.(node) <-
          List.fold_left (fun acc p -> max acc anchor.(p)) (-1) (Graph.preds model node))
    topo;
  let activation_bits =
    units_.Unit_gen.chip.Compass_arch.Config.crossbar.Compass_arch.Crossbar.activation_bits
  in
  let tensor_bytes =
    Array.init nnodes (fun node -> Shape.bytes ~activation_bits (Graph.shape_of model node))
  in
  let table = if span_table then Some (Span_table.create units_ ~anchor) else None in
  { units_; unit_lo; unit_hi; anchor; frac_prefix; tensor_bytes; topo; table }

let home_unit ctx node =
  if node < 0 || node >= Array.length ctx.anchor then invalid_arg "Dataflow.home_unit";
  ctx.anchor.(node)

let in_span ~start_ ~stop i = i >= start_ && i < stop

(* Does a node execute (have units or be attached) inside the span? *)
let touches ctx ~start_ ~stop node =
  if ctx.unit_lo.(node) >= 0 then
    Int.max ctx.unit_lo.(node) start_ <= Int.min ctx.unit_hi.(node) (stop - 1)
  else in_span ~start_ ~stop ctx.anchor.(node)

let layer_fraction_in ctx node ~start_ ~stop =
  if node < 0 || node >= Array.length ctx.anchor then
    invalid_arg "Dataflow.layer_fraction_in";
  if ctx.unit_lo.(node) < 0 then
    if in_span ~start_ ~stop ctx.anchor.(node) then 1. else 0.
  else
    let lo = Int.max ctx.unit_lo.(node) start_ in
    let hi = Int.min (ctx.unit_hi.(node) + 1) stop in
    if hi <= lo then 0. else ctx.frac_prefix.(hi) -. ctx.frac_prefix.(lo)

let span_io ctx ~start_ ~stop =
  let m = Unit_gen.unit_count ctx.units_ in
  if start_ < 0 || stop > m || start_ >= stop then invalid_arg "Dataflow.span_io";
  let model = ctx.units_.Unit_gen.model in
  let weighted = ref [] in
  let attached = ref [] in
  (* Endpoint sets are tiny (a handful of boundary tensors), so max-merging
     in an association list beats hashing; the result is sorted below either
     way. *)
  let loads : (Graph.node * float) list ref = ref [] in
  let stores : (Graph.node * float) list ref = ref [] in
  let add tbl node bytes =
    let rec merge = function
      | [] -> (node, bytes) :: []
      | (n, b) :: rest when n = node -> (n, max bytes b) :: rest
      | kv :: rest -> kv :: merge rest
    in
    tbl := merge !tbl
  in
  (match ctx.table with
  | Some tab ->
    (* Visit exactly the nodes the full topological walk would touch:
       weighted layers with units in the span (ascending unit order is
       their topological order), then attached nodes anchored inside (in
       topological order).  Both loops know their nodes' class up front, so
       the per-visit layer-kind test of the reference walk disappears.
       Loads and stores max-merge per node and the endpoint lists are
       sorted afterwards, so splitting the interleaved walk into two
       passes changes nothing.

       The inside/outside tests reduce to integer range tests: a node is
       fully inside iff all its units are (attached nodes: iff their
       anchor is).  The reference path compares [layer_fraction_in]
       against 1e-9 tolerances instead, but a missing unit always carries
       at least ~1/(rows x cols) >= ~1e-8 of its layer, and a full
       cover's float fraction sum differs from 1 by ulps, so the two
       predicates agree on every node.  Fractions are then only computed
       (by the exact reference expression) for endpoints actually
       emitted, whose byte values stay bit-identical. *)
    let fully_inside node =
      if tab.Span_table.unit_lo.(node) >= 0 then
        tab.Span_table.unit_lo.(node) >= start_ && tab.Span_table.unit_hi.(node) < stop
      else in_span ~start_ ~stop ctx.anchor.(node)
    in
    let need u =
      if not (fully_inside u) then begin
        let missing = 1. -. layer_fraction_in ctx u ~start_ ~stop in
        if missing > 1e-9 then add loads u (ctx.tensor_bytes.(u) *. missing)
      end
    in
    let outside v = not (fully_inside v) in
    let endpoints node =
      List.iter need (Graph.preds model node);
      (* Exit endpoints: this node's local fraction consumed outside.
         Visited nodes always have a positive local fraction. *)
      let succs = tab.Span_table.succ.(node) in
      if succs = [] || List.exists outside succs then begin
        let local = layer_fraction_in ctx node ~start_ ~stop in
        if local > 1e-9 then add stores node (ctx.tensor_bytes.(node) *. local)
      end
    in
    let i = ref start_ in
    while !i < stop do
      let node = tab.Span_table.unit_layer.(!i) in
      weighted := node :: !weighted;
      endpoints node;
      i := tab.Span_table.unit_hi.(node) + 1
    done;
    Array.iteri
      (fun k node ->
        let a = tab.Span_table.attached_anchor.(k) in
        if a >= start_ && a < stop then begin
          attached := node :: !attached;
          endpoints node
        end)
      tab.Span_table.attached
  | None ->
    (* Entry endpoints: fraction of each producer missing from the span. *)
    let need u =
      let missing = 1. -. layer_fraction_in ctx u ~start_ ~stop in
      if missing > 1e-9 then add loads u (ctx.tensor_bytes.(u) *. missing)
    in
    let outside v = layer_fraction_in ctx v ~start_ ~stop < 1. -. 1e-9 in
    let visit node =
      let layer = Graph.layer model node in
      (if Layer.is_weighted layer.Layer.op then weighted := node :: !weighted
       else
         match layer.Layer.op with
         | Layer.Input _ -> ()
         | _ -> attached := node :: !attached);
      List.iter need (Graph.preds model node);
      (* Exit endpoints: this node's local fraction consumed outside. *)
      let local = layer_fraction_in ctx node ~start_ ~stop in
      if local > 1e-9 then begin
        let succs = Graph.succs model node in
        let consumed_outside = List.exists outside succs in
        let is_exit = succs = [] in
        if consumed_outside || is_exit then
          add stores node (ctx.tensor_bytes.(node) *. local)
      end
    in
    List.iter (fun node -> if touches ctx ~start_ ~stop node then visit node) ctx.topo);
  let load_list = List.sort compare !loads in
  let store_list = List.sort compare !stores in
  {
    start_;
    stop;
    weighted_layers = List.rev !weighted;
    attached = List.rev !attached;
    loads = load_list;
    stores = store_list;
    load_bytes = List.fold_left (fun acc (_, b) -> acc +. b) 0. load_list;
    store_bytes = List.fold_left (fun acc (_, b) -> acc +. b) 0. store_list;
  }

let tensor_bytes ctx node =
  if node < 0 || node >= Array.length ctx.tensor_bytes then
    invalid_arg "Dataflow.tensor_bytes";
  ctx.tensor_bytes.(node)

let is_model_input ctx node =
  match (Graph.layer ctx.units_.Unit_gen.model node).Layer.op with
  | Layer.Input _ -> true
  | _ -> false

let is_model_output ctx node = Graph.succs ctx.units_.Unit_gen.model node = []

let onchip_buffer_bytes ctx =
  let chip = ctx.units_.Unit_gen.chip in
  0.5
  *. float_of_int
       (chip.Compass_arch.Config.cores
       * chip.Compass_arch.Config.core.Compass_arch.Config.local_mem_banks
       * chip.Compass_arch.Config.core.Compass_arch.Config.local_mem_bytes)

let spills_to_dram ctx ~batch node =
  if batch < 1 then invalid_arg "Dataflow.spills_to_dram: batch < 1";
  is_model_input ctx node || is_model_output ctx node
  || float_of_int batch *. tensor_bytes ctx node > onchip_buffer_bytes ctx
