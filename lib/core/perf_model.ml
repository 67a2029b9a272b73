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

(* Per-layer span shares are prefix-sum differences over the span table:
   tile counts and column sums are integer differences, and the
   weight-byte difference is exact by the argument on
   [Unit_gen.weight_bytes_prefix], so each equals the direct sum over the
   layer's in-span units. *)
let span_layers ctx ~start_ ~stop =
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let xbar = chip.Config.crossbar in
  let macros = chip.Config.core.Config.macros_per_core in
  let vfus = chip.Config.core.Config.vfus_per_core in
  let clock = chip.Config.core.Config.clock_hz in
  if start_ < 0 || stop > Unit_gen.unit_count units || start_ >= stop then
    invalid_arg "Perf_model.span_layers";
  let tab = Dataflow.table ctx in
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

let stage_time_s perf ~replication =
  if replication < 1 then invalid_arg "Perf_model.stage_time_s: replication < 1";
  float_of_int perf.mvms *. perf.op_time_s /. float_of_int replication

let attached_vfu_ops ctx io =
  let vector_ops = (Dataflow.table ctx).Span_table.vector_ops in
  List.fold_left (fun acc node -> acc + vector_ops.(node)) 0 io.Dataflow.attached

let max_useful_replication perf = Int.max 1 perf.mvms
