type t = {
  name : string;
  row_write_latency_s : float;
  write_energy_per_bit_j : float;
  endurance_cycles : float option;
  retention : string;
}

let sram =
  {
    name = "sram";
    row_write_latency_s = 100e-9;
    write_energy_per_bit_j = 1e-12;
    endurance_cycles = None;
    retention = "volatile";
  }

let reram =
  {
    name = "reram";
    row_write_latency_s = 10e-6;
    write_energy_per_bit_j = 100e-12;
    endurance_cycles = Some 1e6;
    retention = "non-volatile (years)";
  }

let mram =
  {
    name = "mram";
    row_write_latency_s = 2e-6;
    write_energy_per_bit_j = 30e-12;
    endurance_cycles = Some 1e15;
    retention = "non-volatile (years)";
  }

let presets = [ sram; reram; mram ]

let by_name name =
  let name = String.lowercase_ascii name in
  List.find (fun t -> t.name = name) presets

let crossbar base t =
  Crossbar.make ~rows:base.Crossbar.rows ~cols:base.Crossbar.cols
    ~cell_bits:base.Crossbar.cell_bits ~weight_bits:base.Crossbar.weight_bits
    ~activation_bits:base.Crossbar.activation_bits
    ~mvm_latency_s:base.Crossbar.mvm_latency_s
    ~row_write_latency_s:t.row_write_latency_s
    ~mvm_energy_j:base.Crossbar.mvm_energy_j
    ~write_energy_per_bit_j:t.write_energy_per_bit_j ()

let chip t (base : Config.chip) =
  Config.custom
    ~label:(base.Config.label ^ "-" ^ t.name)
    ~cores:base.Config.cores
    ~macros_per_core:base.Config.core.Config.macros_per_core
    ~crossbar:(crossbar base.Config.crossbar t)
    ~bus:base.Config.bus ~chip_power_w:base.Config.chip_power_w ~dram:base.Config.dram
    ()

let lifetime_s t ~rewrites_per_cell_per_s =
  if rewrites_per_cell_per_s < 0. then
    invalid_arg "Technology.lifetime_s: negative rewrite rate";
  match t.endurance_cycles with
  | None -> None
  | Some cycles ->
    if rewrites_per_cell_per_s = 0. then Some infinity
    else Some (cycles /. rewrites_per_cell_per_s)
