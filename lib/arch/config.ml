type core = {
  macros_per_core : int;
  vfus_per_core : int;
  vfu_power_w : float;
  vfu_energy_per_op_j : float;
  local_mem_banks : int;
  local_mem_bytes : int;
  local_mem_power_w : float;
  control_power_w : float;
  clock_hz : float;
}

type chip = {
  label : string;
  cores : int;
  core : core;
  crossbar : Crossbar.t;
  bus : Interconnect.t;
  chip_power_w : float;
}

let default_core ~macros_per_core =
  if macros_per_core <= 0 then invalid_arg "Config.default_core: non-positive macros";
  {
    macros_per_core;
    vfus_per_core = 12;
    vfu_power_w = 22.8e-3;
    vfu_energy_per_op_j = 2e-12;
    local_mem_banks = 6;
    local_mem_bytes = 64 * 1024;
    local_mem_power_w = 18.0e-3;
    control_power_w = 8.0e-3;
    clock_hz = 1e9;
  }

let core_static_power_w core =
  core.vfu_power_w +. core.local_mem_power_w +. core.control_power_w

let make_chip ~label ~cores ~macros_per_core ~crossbar ~bus ~chip_power_w =
  if cores <= 0 then invalid_arg "Config: non-positive core count";
  let core = default_core ~macros_per_core in
  { label; cores; core; crossbar; bus; chip_power_w }

(* Table I chip powers. *)
let chip_s =
  make_chip ~label:"S" ~cores:16 ~macros_per_core:9 ~crossbar:Crossbar.default
    ~bus:Interconnect.default ~chip_power_w:1.57

let chip_m =
  make_chip ~label:"M" ~cores:16 ~macros_per_core:16 ~crossbar:Crossbar.default
    ~bus:Interconnect.default ~chip_power_w:2.80

let chip_l =
  make_chip ~label:"L" ~cores:16 ~macros_per_core:36 ~crossbar:Crossbar.default
    ~bus:Interconnect.default ~chip_power_w:6.30

let presets = [ ("S", chip_s); ("M", chip_m); ("L", chip_l) ]

let by_label label = List.assoc (String.uppercase_ascii label) presets

(* Residual (macro + interconnect) power per macro, interpolated from the
   S preset so custom chips get a consistent default total power. *)
let macro_power_estimate_w =
  let core_part = 16. *. core_static_power_w chip_s.core in
  (chip_s.chip_power_w -. core_part) /. float_of_int (16 * 9)

let custom ~label ~cores ~macros_per_core ?(crossbar = Crossbar.default)
    ?(bus = Interconnect.default) ?chip_power_w () =
  if macros_per_core <= 0 then invalid_arg "Config.custom: non-positive macros";
  let core = default_core ~macros_per_core in
  let chip_power_w =
    match chip_power_w with
    | Some p -> p
    | None ->
      (float_of_int cores *. core_static_power_w core)
      +. (float_of_int (cores * macros_per_core) *. macro_power_estimate_w)
  in
  make_chip ~label ~cores ~macros_per_core ~crossbar ~bus ~chip_power_w

let total_macros chip = chip.cores * chip.core.macros_per_core

let capacity_bytes chip =
  float_of_int (total_macros chip) *. Crossbar.capacity_bytes chip.crossbar

let table1 () =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "Chip"; "#Cores"; "#Crossbar/Core"; "Capacity(MB)"; "Power(W)" ]
  in
  let row (_, chip) =
    Table.add_row table
      [
        chip.label;
        string_of_int chip.cores;
        string_of_int chip.core.macros_per_core;
        Printf.sprintf "%.3f" (capacity_bytes chip /. Units.mib);
        Printf.sprintf "%.2f" chip.chip_power_w;
      ]
  in
  List.iter row presets;
  table

let pp_chip ppf chip =
  Format.fprintf ppf "chip %s: %d cores x %d macros (%s on-chip, %.2f W)" chip.label
    chip.cores chip.core.macros_per_core
    (Compass_util.Units.bytes_to_string (capacity_bytes chip))
    chip.chip_power_w
