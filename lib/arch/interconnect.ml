type t = {
  bandwidth_bytes_per_s : float;
  base_latency_s : float;
  energy_per_byte_j : float;
}

let default =
  { bandwidth_bytes_per_s = 32e9; base_latency_s = 10e-9; energy_per_byte_j = 4e-12 }

let transfer_time_s t ~bytes =
  if bytes < 0. then invalid_arg "Interconnect.transfer_time_s: negative bytes";
  if bytes = 0. then 0. else t.base_latency_s +. (bytes /. t.bandwidth_bytes_per_s)

let transfer_energy_j t ~bytes =
  if bytes < 0. then invalid_arg "Interconnect.transfer_energy_j: negative bytes";
  bytes *. t.energy_per_byte_j
