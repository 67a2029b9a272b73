let simulate ?timing ?energy records = Controller.run ?timing ?energy records

let streaming_efficiency = 0.9

let analytic_seconds ?(timing = Timing.lpddr3_1600) bytes =
  if bytes < 0. then invalid_arg "Dram.analytic_seconds: negative bytes";
  if bytes = 0. then 0.
  else
    let overhead =
      Timing.cycles_to_seconds timing
        (timing.Timing.trcd + timing.Timing.cl + Timing.burst_cycles timing)
    in
    overhead
    +. (bytes /. (Timing.peak_bandwidth_bytes_per_s timing *. streaming_efficiency))

let analytic_energy_per_byte_j ?(timing = Timing.lpddr3_1600)
    ?(energy = Controller.default_energy) () =
  let burst = float_of_int (Timing.burst_bytes timing) in
  let row = float_of_int timing.Timing.row_bytes in
  (energy.Controller.read_burst_j /. burst)
  +. (energy.Controller.activate_j /. row)
  +. (energy.Controller.background_w
     /. (Timing.peak_bandwidth_bytes_per_s timing *. streaming_efficiency))

let analytic_energy_j ?timing ?energy bytes =
  if bytes < 0. then invalid_arg "Dram.analytic_energy_j: negative bytes";
  bytes *. analytic_energy_per_byte_j ?timing ?energy ()

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
