let non_negative name v = if v < 0. then invalid_arg ("Energy." ^ name ^ ": negative count")

let mvm_j (chip : Config.chip) ~macro_ops =
  non_negative "mvm_j" macro_ops;
  macro_ops *. chip.Config.crossbar.Crossbar.mvm_energy_j

let weight_write_j (chip : Config.chip) ~bytes =
  non_negative "weight_write_j" bytes;
  let xbar = chip.Config.crossbar in
  (* bytes of logical weights -> programmed cell bits *)
  let cell_bits =
    bytes *. 8. /. float_of_int xbar.Crossbar.weight_bits
    *. float_of_int xbar.Crossbar.cell_bits
    *. float_of_int (Crossbar.cols_per_weight xbar)
  in
  Crossbar.write_energy_j xbar ~bits:cell_bits

let vfu_j (chip : Config.chip) ~ops =
  non_negative "vfu_j" ops;
  ops *. chip.Config.core.Config.vfu_energy_per_op_j

let bus_j (chip : Config.chip) ~bytes =
  Interconnect.transfer_energy_j chip.Config.bus ~bytes

let static_j (chip : Config.chip) ~seconds =
  non_negative "static_j" seconds;
  seconds *. chip.Config.chip_power_w
