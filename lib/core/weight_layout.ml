open Compass_nn
open Compass_arch

type macro_image = {
  layer : Graph.node;
  unit_index : int;
  replica : int;
  core : int;
  row_block : int;
  col_block : int;
  codes : int array;
}

type t = {
  partition : int;
  images : macro_image list;
  specs : (Graph.node * Quant.spec) list;
}

(* Weight matrix semantics: element (row r, column c) is weight
   [codes.(c * rows + r)] — one column per output channel, rows covering
   the flattened (grouped) input window, matching [Tensor]'s layouts. *)
let pack_partition ctx group ~partition ~weights ?bits () =
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let xbar = chip.Config.crossbar in
  let bits = Option.value bits ~default:xbar.Crossbar.weight_bits in
  if partition < 0 || partition >= Partition.partition_count group then
    invalid_arg "Weight_layout.pack_partition: partition out of range";
  let span = Partition.span_at group partition in
  let start_ = span.Partition.start_ and stop = span.Partition.stop in
  let batch_free = 1 in
  let replication = Replication.allocate ctx ~batch:batch_free ~start_ ~stop in
  let mapping =
    match
      Mapping.pack units ~start_ ~stop
        ~replication:(Replication.unit_replication replication units)
    with
    | Ok m -> m
    | Error msg -> invalid_arg ("Weight_layout.pack_partition: " ^ msg)
  in
  let model = units.Unit_gen.model in
  (* Quantize each layer present in the span once. *)
  let quantized : (Graph.node, float array * Quant.spec) Hashtbl.t = Hashtbl.create 8 in
  let quantize_layer node =
    match Hashtbl.find_opt quantized node with
    | Some q -> q
    | None ->
      let raw =
        match Hashtbl.find_opt weights node with
        | Some w -> w
        | None ->
          invalid_arg
            (Printf.sprintf "Weight_layout: missing weights for node %d" node)
      in
      let snapped, spec = Quant.quantize ~bits raw in
      Hashtbl.add quantized node (snapped, spec);
      (snapped, spec)
  in
  let lrows = xbar.Crossbar.rows in
  let lcols = Crossbar.logical_cols xbar in
  let images = ref [] in
  Array.iteri
    (fun core assignments ->
      List.iter
        (fun (a : Mapping.assignment) ->
          let u = units.Unit_gen.units.(a.Mapping.unit_index) in
          let node = u.Unit_gen.layer in
          let op = (Graph.layer model node).Layer.op in
          let rows_total = Layer.weight_rows op in
          let snapped, spec = quantize_layer node in
          let all_codes = Quant.codes spec snapped in
          let unit_rows = u.Unit_gen.row_hi - u.Unit_gen.row_lo in
          let unit_cols = u.Unit_gen.col_hi - u.Unit_gen.col_lo in
          let row_blocks = (unit_rows + lrows - 1) / lrows in
          let col_blocks = (unit_cols + lcols - 1) / lcols in
          for rb = 0 to row_blocks - 1 do
            for cb = 0 to col_blocks - 1 do
              let codes = Array.make (lrows * lcols) 0 in
              for r = 0 to lrows - 1 do
                for c = 0 to lcols - 1 do
                  let mr = u.Unit_gen.row_lo + (rb * lrows) + r in
                  let mc = u.Unit_gen.col_lo + (cb * lcols) + c in
                  if mr < u.Unit_gen.row_hi && mc < u.Unit_gen.col_hi then
                    codes.((r * lcols) + c) <-
                      all_codes.((mc * rows_total) + mr)
                done
              done;
              images :=
                {
                  layer = node;
                  unit_index = a.Mapping.unit_index;
                  replica = a.Mapping.replica;
                  core;
                  row_block = rb;
                  col_block = cb;
                  codes;
                }
                :: !images
            done
          done)
        assignments)
    mapping.Mapping.cores;
  {
    partition;
    images = List.rev !images;
    specs =
      Hashtbl.fold (fun node (_, spec) acc -> (node, spec) :: acc) quantized []
      |> List.sort compare;
  }

let reconstruct_layer ctx t node =
  let units = Dataflow.units ctx in
  let model = units.Unit_gen.model in
  let xbar = units.Unit_gen.chip.Config.crossbar in
  let lrows = xbar.Crossbar.rows in
  let lcols = Crossbar.logical_cols xbar in
  let op = (Graph.layer model node).Layer.op in
  let rows_total = Layer.weight_rows op in
  let cols_total = Layer.weight_cols op in
  match List.assoc_opt node t.specs with
  | None -> None
  | Some spec ->
    let out = Array.make (rows_total * cols_total) 0. in
    List.iter
      (fun img ->
        if img.layer = node && img.replica = 0 then begin
          let u = units.Unit_gen.units.(img.unit_index) in
          for r = 0 to lrows - 1 do
            for c = 0 to lcols - 1 do
              let mr = u.Unit_gen.row_lo + (img.row_block * lrows) + r in
              let mc = u.Unit_gen.col_lo + (img.col_block * lcols) + c in
              if mr < u.Unit_gen.row_hi && mc < u.Unit_gen.col_hi then
                out.((mc * rows_total) + mr) <-
                  float_of_int img.codes.((r * lcols) + c) *. spec.Quant.scale
            done
          done
        end)
      t.images;
    Some out
