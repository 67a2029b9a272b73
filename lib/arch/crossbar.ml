type t = {
  rows : int;
  cols : int;
  cell_bits : int;
  weight_bits : int;
  activation_bits : int;
  mvm_latency_s : float;
  row_write_latency_s : float;
  mvm_energy_j : float;
  write_energy_per_bit_j : float;
}

let make ?(rows = 256) ?(cols = 256) ?(cell_bits = 1) ?(weight_bits = 4)
    ?(activation_bits = 4) ?(mvm_latency_s = 400e-9) ?(row_write_latency_s = 100e-9)
    ?(mvm_energy_j = 0.5e-9) ?(write_energy_per_bit_j = 1e-12) () =
  if rows <= 0 || cols <= 0 then invalid_arg "Crossbar.make: non-positive dimension";
  if cell_bits <= 0 || weight_bits <= 0 || activation_bits <= 0 then
    invalid_arg "Crossbar.make: non-positive precision";
  if weight_bits mod cell_bits <> 0 then
    invalid_arg "Crossbar.make: weight_bits must be a multiple of cell_bits";
  if cols mod (weight_bits / cell_bits) <> 0 then
    invalid_arg "Crossbar.make: cols must be divisible by cols-per-weight";
  if mvm_latency_s <= 0. || row_write_latency_s <= 0. then
    invalid_arg "Crossbar.make: non-positive latency";
  if mvm_energy_j < 0. || write_energy_per_bit_j < 0. then
    invalid_arg "Crossbar.make: negative energy";
  {
    rows;
    cols;
    cell_bits;
    weight_bits;
    activation_bits;
    mvm_latency_s;
    row_write_latency_s;
    mvm_energy_j;
    write_energy_per_bit_j;
  }

let default = make ()

let cols_per_weight t = t.weight_bits / t.cell_bits
let logical_cols t = t.cols / cols_per_weight t
let weight_capacity t = t.rows * logical_cols t

let capacity_bytes t =
  float_of_int (weight_capacity t) *. float_of_int t.weight_bits /. 8.

let ceil_div a b = (a + b - 1) / b

let tile_grid t ~rows ~cols =
  if rows <= 0 || cols <= 0 then invalid_arg "Crossbar.tile_grid: non-positive matrix";
  (ceil_div rows t.rows, ceil_div cols (logical_cols t))

let write_latency_s t = float_of_int t.rows *. t.row_write_latency_s

let write_energy_j t ~bits =
  if bits < 0. then invalid_arg "Crossbar.write_energy_j: negative bits";
  bits *. t.write_energy_per_bit_j
