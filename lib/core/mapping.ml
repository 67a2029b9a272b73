open Compass_arch

type assignment = {
  unit_index : int;
  replica : int;
  tiles : int;
}

type t = {
  cores : assignment list array;
  tiles_used : int array;
  total_tiles : int;
  capacity_per_core : int;
  capacities : int array;
}

let effective_capacities ?faults chip =
  let ncores = chip.Config.cores in
  let capacity = chip.Config.core.Config.macros_per_core in
  match faults with
  | None -> Array.make ncores capacity
  | Some f ->
    if Fault.cores f <> ncores then
      invalid_arg
        (Printf.sprintf "Mapping: fault scenario has %d cores but chip %s has %d"
           (Fault.cores f) chip.Config.label ncores);
    Fault.capacities f ~macros_per_core:capacity

let pack ?faults (units : Unit_gen.t) ~start_ ~stop ~replication =
  let chip = units.Unit_gen.chip in
  let ncores = chip.Config.cores in
  let capacity = chip.Config.core.Config.macros_per_core in
  let capacities = effective_capacities ?faults chip in
  if start_ < 0 || stop > Unit_gen.unit_count units || start_ >= stop then
    invalid_arg
      (Printf.sprintf "Mapping.pack: bad span [%d, %d) over %d units" start_ stop
         (Unit_gen.unit_count units));
  (* First-fit-decreasing over per-tile-count buckets.  Tile counts are
     bounded by the core capacity, so buckets replace the comparison sort;
     within a bucket, items keep the order a stable sort of the
     prepend-built list gave them (reverse build order), which prepending
     into the bucket reproduces. *)
  let buckets = Array.make (capacity + 1) [] in
  for i = start_ to stop - 1 do
    let u = units.Unit_gen.units.(i) in
    let r = replication i in
    if r < 1 then
      invalid_arg (Printf.sprintf "Mapping.pack: replication %d < 1 for unit %d" r i);
    if u.Unit_gen.tiles > capacity then
      invalid_arg
        (Printf.sprintf "Mapping.pack: unit %d exceeds a core (%d tiles > %d macros)" i
           u.Unit_gen.tiles capacity);
    for replica = 0 to r - 1 do
      buckets.(u.Unit_gen.tiles) <-
        { unit_index = i; replica; tiles = u.Unit_gen.tiles } :: buckets.(u.Unit_gen.tiles)
    done
  done;
  let cores = Array.make ncores [] in
  let tiles_used = Array.make ncores 0 in
  (* First-fit of equal-size items is a front-to-back fill: the cores
     before the one that took an item could not take it, and nothing
     placed since has made room there, so the next equal item's first
     fit starts at that same core. *)
  let rec fill tiles c = function
    | [] -> Ok ()
    | item :: rest as items ->
      if c >= ncores then Error item
      else if tiles_used.(c) + tiles <= capacities.(c) then begin
        cores.(c) <- item :: cores.(c);
        tiles_used.(c) <- tiles_used.(c) + tiles;
        fill tiles c rest
      end
      else fill tiles (c + 1) items
  in
  let rec fill_from tiles =
    if tiles < 0 then Ok ()
    else
      match fill tiles 0 buckets.(tiles) with
      | Ok () -> fill_from (tiles - 1)
      | Error _ as e -> e
  in
  match fill_from capacity with
  | Error item ->
    Error
      (Printf.sprintf "unit %d replica %d (%d tiles) does not fit" item.unit_index
         item.replica item.tiles)
  | Ok () ->
    let total_tiles = Array.fold_left ( + ) 0 tiles_used in
    Ok
      {
        cores = Array.map List.rev cores;
        tiles_used;
        total_tiles;
        capacity_per_core = capacity;
        capacities;
      }

let feasible ?faults units ~start_ ~stop =
  match pack ?faults units ~start_ ~stop ~replication:(fun _ -> 1) with
  | Ok _ -> true
  | Error _ -> false
  | exception Invalid_argument _ -> false

let cores_used t =
  Array.fold_left (fun acc used -> if used > 0 then acc + 1 else acc) 0 t.tiles_used

let utilization t =
  let capacity = Array.fold_left ( + ) 0 t.capacities in
  if capacity = 0 then 0. else float_of_int t.total_tiles /. float_of_int capacity

let core_of_unit t ~unit_index ~replica =
  let found = ref None in
  Array.iteri
    (fun c assignments ->
      if !found = None
         && List.exists (fun a -> a.unit_index = unit_index && a.replica = replica) assignments
      then found := Some c)
    t.cores;
  match !found with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Mapping.core_of_unit: unit %d replica %d is not placed" unit_index
         replica)
