let timing = Timing.lpddr3_1600
let energy = Controller.default_energy
let simulate records = Controller.run ~timing ~energy records

let streaming_efficiency = 0.9
let streaming_bandwidth = Timing.peak_bandwidth_bytes_per_s timing *. streaming_efficiency

let first_access_s =
  Timing.cycles_to_seconds timing
    (timing.Timing.trcd + timing.Timing.cl + Timing.burst_cycles timing)

let analytic_seconds bytes =
  if bytes < 0. then invalid_arg "Dram.analytic_seconds: negative bytes";
  if bytes = 0. then 0. else first_access_s +. (bytes /. streaming_bandwidth)

let energy_per_byte_j =
  (energy.Controller.read_burst_j /. float_of_int (Timing.burst_bytes timing))
  +. (energy.Controller.activate_j /. float_of_int timing.Timing.row_bytes)
  +. (energy.Controller.background_w /. streaming_bandwidth)

let analytic_energy_j bytes =
  if bytes < 0. then invalid_arg "Dram.analytic_energy_j: negative bytes";
  bytes *. energy_per_byte_j

let pp_stats ppf (s : Controller.stats) =
  let open Compass_util in
  Format.fprintf ppf
    "dram: %s in %s (%.2f GB/s, %.1f%% row hits, %d ACT, %d REF, %s)"
    (Units.bytes_to_string s.Controller.bytes)
    (Units.time_to_string s.Controller.seconds)
    (Controller.effective_bandwidth s /. 1e9)
    (100. *. Controller.row_hit_rate s)
    s.Controller.activates s.Controller.refreshes
    (Units.energy_to_string s.Controller.energy_j)
