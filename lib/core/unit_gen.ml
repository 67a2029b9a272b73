open Compass_nn
open Compass_arch

type unit_t = {
  index : int;
  layer : Graph.node;
  layer_order : int;
  col_lo : int;
  col_hi : int;
  row_lo : int;
  row_hi : int;
  row_blocks : int;
  col_blocks : int;
  tiles : int;
  weight_bytes : float;
  partial_sum : bool;
}

type t = {
  model : Graph.t;
  chip : Config.chip;
  units : unit_t array;
  layer_units : (Graph.node * int list) list;
  tiles_prefix : int array;
  weight_bytes_prefix : float array;
}

(* Decompose one weighted layer into units for a given macro budget. *)
let layer_units_of ~xbar ~macros ~layer ~layer_order ~next_index =
  let op = layer.Layer.op in
  let rows = Layer.weight_rows op in
  let cols = Layer.weight_cols op in
  let lrows = xbar.Crossbar.rows in
  let lcols = Crossbar.logical_cols xbar in
  let weight_bits = float_of_int xbar.Crossbar.weight_bits in
  let rb_total, cb_total = Crossbar.tile_grid xbar ~rows ~cols in
  let bytes ~row_lo ~row_hi ~col_lo ~col_hi =
    float_of_int ((row_hi - row_lo) * (col_hi - col_lo)) *. weight_bits /. 8.
  in
  let units = ref [] in
  let index = ref next_index in
  if rb_total <= macros then begin
    (* Whole input dimension fits a core: pack as many column blocks as the
       remaining macros allow into each unit. *)
    let cb_per_unit = max 1 (macros / rb_total) in
    let cb = ref 0 in
    while !cb < cb_total do
      let cb_here = min cb_per_unit (cb_total - !cb) in
      let col_lo = !cb * lcols in
      let col_hi = min cols ((!cb + cb_here) * lcols) in
      units :=
        {
          index = !index;
          layer = layer.Layer.id;
          layer_order;
          col_lo;
          col_hi;
          row_lo = 0;
          row_hi = rows;
          row_blocks = rb_total;
          col_blocks = cb_here;
          tiles = rb_total * cb_here;
          weight_bytes = bytes ~row_lo:0 ~row_hi:rows ~col_lo ~col_hi;
          partial_sum = false;
        }
        :: !units;
      incr index;
      cb := !cb + cb_here
    done
  end
  else
    (* Row demand exceeds a core: split each column block along the input
       dimension; partial sums are merged by the VFUs. *)
    for cb = 0 to cb_total - 1 do
      let col_lo = cb * lcols in
      let col_hi = min cols ((cb + 1) * lcols) in
      let rb = ref 0 in
      while !rb < rb_total do
        let rb_here = min macros (rb_total - !rb) in
        let row_lo = !rb * lrows in
        let row_hi = min rows ((!rb + rb_here) * lrows) in
        units :=
          {
            index = !index;
            layer = layer.Layer.id;
            layer_order;
            col_lo;
            col_hi;
            row_lo;
            row_hi;
            row_blocks = rb_here;
            col_blocks = 1;
            tiles = rb_here;
            weight_bytes = bytes ~row_lo ~row_hi ~col_lo ~col_hi;
            partial_sum = true;
          }
          :: !units;
        incr index;
        rb := !rb + rb_here
      done
    done;
  (List.rev !units, !index)

let generate model chip =
  let weighted = Graph.weighted_nodes model in
  if weighted = [] then invalid_arg "Unit_gen.generate: model has no weighted layer";
  let xbar = chip.Config.crossbar in
  let macros = chip.Config.core.Config.macros_per_core in
  let next = ref 0 in
  let per_layer = ref [] in
  let all = ref [] in
  List.iteri
    (fun layer_order node ->
      let layer = Graph.layer model node in
      let units, next' =
        layer_units_of ~xbar ~macros ~layer ~layer_order ~next_index:!next
      in
      next := next';
      per_layer := (node, List.map (fun u -> u.index) units) :: !per_layer;
      all := List.rev_append units !all)
    weighted;
  let units = Array.of_list (List.rev !all) in
  let m = Array.length units in
  (* Prefix sums make span tile/byte queries O(1).  Per-unit weight bytes
     are dyadic rationals far below 2^52, so every partial sum is exact and
     prefix differences match the direct left-to-right sum bit for bit. *)
  let tiles_prefix = Array.make (m + 1) 0 in
  let weight_bytes_prefix = Array.make (m + 1) 0. in
  for i = 0 to m - 1 do
    tiles_prefix.(i + 1) <- tiles_prefix.(i) + units.(i).tiles;
    weight_bytes_prefix.(i + 1) <- weight_bytes_prefix.(i) +. units.(i).weight_bytes
  done;
  { model; chip; units; layer_units = List.rev !per_layer; tiles_prefix; weight_bytes_prefix }

let unit_count t = Array.length t.units

let units_of_layer t node = List.assoc node t.layer_units

let layer_of_unit t i =
  if i < 0 || i >= Array.length t.units then invalid_arg "Unit_gen.layer_of_unit";
  t.units.(i).layer

let span_weight_bytes t a b =
  if a < 0 || b > Array.length t.units || a > b then
    invalid_arg "Unit_gen.span_weight_bytes";
  t.weight_bytes_prefix.(b) -. t.weight_bytes_prefix.(a)

let col_fraction u model =
  let cols = Compass_nn.Layer.weight_cols (Graph.layer model u.layer).Layer.op in
  float_of_int (u.col_hi - u.col_lo) /. float_of_int cols
