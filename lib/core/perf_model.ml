open Compass_nn
open Compass_arch

type layer_perf = {
  node : Graph.node;
  mvms : int;
  tiles_in_span : int;
  weight_bytes_in_span : float;
  op_time_s : float;
  macro_ops_per_mvm : int;
  vfu_ops_per_mvm : int;
}

let ceil_div a b = (a + b - 1) / b

(* Reference implementation: derive everything from the graph and the unit
   list per query.  Kept verbatim as the oracle the span-table path is
   differentially tested against. *)
let span_layers_walk ?io ctx ~start_ ~stop =
  let units = Dataflow.units ctx in
  let model = units.Unit_gen.model in
  let chip = units.Unit_gen.chip in
  let xbar = chip.Config.crossbar in
  let io =
    match io with Some io -> io | None -> Dataflow.span_io ctx ~start_ ~stop
  in
  let perf node =
    let op = (Graph.layer model node).Layer.op in
    let rows = Layer.weight_rows op in
    let cols = Layer.weight_cols op in
    let row_blocks = ceil_div rows xbar.Crossbar.rows in
    (* Units of a layer are contiguous in decomposition order. *)
    let unit_idxs =
      List.filter (fun i -> i >= start_ && i < stop) (Unit_gen.units_of_layer units node)
    in
    let tiles_in_span =
      List.fold_left (fun acc i -> acc + units.Unit_gen.units.(i).Unit_gen.tiles) 0 unit_idxs
    in
    let weight_bytes_in_span =
      List.fold_left
        (fun acc i -> acc +. units.Unit_gen.units.(i).Unit_gen.weight_bytes)
        0. unit_idxs
    in
    let mvms = Graph.mvms_of model node in
    (* VFU merge per MVM: accumulate [row_blocks] partial sums and apply the
       fused activation for each output of the span's column share. *)
    let span_cols =
      List.fold_left
        (fun acc i ->
          let u = units.Unit_gen.units.(i) in
          acc + (u.Unit_gen.col_hi - u.Unit_gen.col_lo))
        0 unit_idxs
    in
    let span_cols = Int.min cols span_cols in
    let vfu_ops_per_mvm = span_cols * (row_blocks + 1) in
    let hosting_cores =
      Int.max 1 (ceil_div tiles_in_span chip.Config.core.Config.macros_per_core)
    in
    let lanes = chip.Config.core.Config.vfus_per_core * hosting_cores in
    let vfu_time =
      float_of_int vfu_ops_per_mvm
      /. float_of_int lanes /. chip.Config.core.Config.clock_hz
    in
    {
      node;
      mvms;
      tiles_in_span;
      weight_bytes_in_span;
      op_time_s = xbar.Crossbar.mvm_latency_s +. vfu_time;
      macro_ops_per_mvm = tiles_in_span;
      vfu_ops_per_mvm;
    }
  in
  List.map perf io.Dataflow.weighted_layers

(* Span-table path: the same numbers from prefix-sum differences and
   per-node geometry arrays, without computing the span IO at all.  Tile
   counts and column sums are integer prefix differences (trivially exact);
   the weight-byte prefix difference is exact by the argument on
   [Unit_gen.weight_bytes_prefix]; every float expression below is
   syntactically the one in [span_layers_walk], so the results are
   bit-identical. *)
let span_layers_table tab ctx ~start_ ~stop =
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let xbar = chip.Config.crossbar in
  let macros = chip.Config.core.Config.macros_per_core in
  let vfus = chip.Config.core.Config.vfus_per_core in
  let clock = chip.Config.core.Config.clock_hz in
  let rec collect acc i =
    if i >= stop then List.rev acc
    else begin
      let node = tab.Span_table.unit_layer.(i) in
      let hi = Int.min (tab.Span_table.unit_hi.(node) + 1) stop in
      let tiles_in_span =
        units.Unit_gen.tiles_prefix.(hi) - units.Unit_gen.tiles_prefix.(i)
      in
      let weight_bytes_in_span =
        units.Unit_gen.weight_bytes_prefix.(hi) -. units.Unit_gen.weight_bytes_prefix.(i)
      in
      let span_cols =
        Int.min tab.Span_table.cols.(node)
          (tab.Span_table.cols_prefix.(hi) - tab.Span_table.cols_prefix.(i))
      in
      let row_blocks = tab.Span_table.row_blocks.(node) in
      let vfu_ops_per_mvm = span_cols * (row_blocks + 1) in
      let hosting_cores = Int.max 1 (ceil_div tiles_in_span macros) in
      let lanes = vfus * hosting_cores in
      let vfu_time = float_of_int vfu_ops_per_mvm /. float_of_int lanes /. clock in
      let p =
        {
          node;
          mvms = tab.Span_table.mvms.(node);
          tiles_in_span;
          weight_bytes_in_span;
          op_time_s = xbar.Crossbar.mvm_latency_s +. vfu_time;
          macro_ops_per_mvm = tiles_in_span;
          vfu_ops_per_mvm;
        }
      in
      collect (p :: acc) (tab.Span_table.unit_hi.(node) + 1)
    end
  in
  collect [] start_

let span_layers ?io ctx ~start_ ~stop =
  let m = Unit_gen.unit_count (Dataflow.units ctx) in
  if start_ < 0 || stop > m || start_ >= stop then invalid_arg "Perf_model.span_layers";
  match Dataflow.table ctx with
  | Some tab -> span_layers_table tab ctx ~start_ ~stop
  | None -> span_layers_walk ?io ctx ~start_ ~stop

let stage_time_s perf ~replication =
  if replication < 1 then invalid_arg "Perf_model.stage_time_s: replication < 1";
  float_of_int perf.mvms *. perf.op_time_s /. float_of_int replication

let attached_vfu_ops ctx io =
  match Dataflow.table ctx with
  | Some tab ->
    List.fold_left
      (fun acc node -> acc + tab.Span_table.vector_ops.(node))
      0 io.Dataflow.attached
  | None ->
    let model = (Dataflow.units ctx).Unit_gen.model in
    List.fold_left
      (fun acc node -> acc + Graph.vector_ops_of model node)
      0 io.Dataflow.attached

let max_useful_replication perf = max 1 perf.mvms
