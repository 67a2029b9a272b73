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
  table : Span_table.t;
  frac : float array; (* per unit: fraction of its layer's output *)
  frac_prefix : float array; (* prefix sums of [frac]; length M + 1 *)
  tensor_bytes : float array;
}

let units ctx = ctx.units_
let table ctx = ctx.table

let context (units_ : Unit_gen.t) =
  let model = units_.Unit_gen.model in
  let table = Span_table.create units_ in
  let m = Unit_gen.unit_count units_ in
  (* Fraction of its layer's output each unit carries, as a prefix sum so a
     span's coverage of a layer is an O(1) lookup. *)
  let frac =
    Array.map
      (fun u ->
        let base = Unit_gen.col_fraction u model in
        if u.Unit_gen.partial_sum then
          base
          *. float_of_int (u.Unit_gen.row_hi - u.Unit_gen.row_lo)
          /. float_of_int table.Span_table.rows.(u.Unit_gen.layer)
        else base)
      units_.Unit_gen.units
  in
  let frac_prefix = Array.make (m + 1) 0. in
  for i = 0 to m - 1 do
    frac_prefix.(i + 1) <- frac_prefix.(i) +. frac.(i)
  done;
  let activation_bits =
    units_.Unit_gen.chip.Compass_arch.Config.crossbar.Compass_arch.Crossbar.activation_bits
  in
  let tensor_bytes =
    Array.init (Graph.node_count model) (fun node ->
        Shape.bytes ~activation_bits (Graph.shape_of model node))
  in
  { units_; table; frac; frac_prefix; tensor_bytes }

let home_unit ctx node =
  let anchor = ctx.table.Span_table.anchor in
  if node < 0 || node >= Array.length anchor then invalid_arg "Dataflow.home_unit";
  anchor.(node)

let unit_fraction ctx i =
  if i < 0 || i >= Array.length ctx.frac then invalid_arg "Dataflow.unit_fraction";
  ctx.frac.(i)

let in_span ~start_ ~stop (i : int) = i >= start_ && i < stop

let layer_fraction_in ctx node ~start_ ~stop =
  let tab = ctx.table in
  if node < 0 || node >= Array.length tab.Span_table.anchor then
    invalid_arg "Dataflow.layer_fraction_in";
  if tab.Span_table.unit_lo.(node) < 0 then
    if in_span ~start_ ~stop tab.Span_table.anchor.(node) then 1. else 0.
  else
    let lo = Int.max tab.Span_table.unit_lo.(node) start_ in
    let hi = Int.min (tab.Span_table.unit_hi.(node) + 1) stop in
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
      | (n, b) :: rest when Int.equal n node ->
        (n, if (bytes : float) >= b then bytes else b) :: rest
      | kv :: rest -> kv :: merge rest
    in
    tbl := merge !tbl
  in
  let tab = ctx.table in
  (* Visit weighted layers with units in the span (ascending unit order is
     their topological order), then attached nodes anchored inside (in
     topological order).  Loads and stores max-merge per node and the
     endpoint lists are sorted afterwards, so the visiting order does not
     show in the result.

     A node is fully inside iff all its units are (attached nodes: iff
     their anchor is): a missing unit always carries at least
     ~1/(rows x cols) >= ~1e-8 of its layer, so this integer test agrees
     with comparing [layer_fraction_in] against 1 - 1e-9.  Fractions are
     only computed for endpoints actually emitted. *)
  let fully_inside node =
    if tab.Span_table.unit_lo.(node) >= 0 then
      tab.Span_table.unit_lo.(node) >= start_ && tab.Span_table.unit_hi.(node) < stop
    else in_span ~start_ ~stop tab.Span_table.anchor.(node)
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
  Array.iter
    (fun node ->
      if in_span ~start_ ~stop tab.Span_table.anchor.(node) then begin
        attached := node :: !attached;
        endpoints node
      end)
    tab.Span_table.attached;
  (* Each node appears at most once after the merge, so ordering by node
     alone is the order of the whole pair. *)
  let by_node (a, _) (b, _) = Int.compare a b in
  let load_list = List.sort by_node !loads in
  let store_list = List.sort by_node !stores in
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
