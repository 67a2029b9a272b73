open Compass_arch

type assignment = {
  unit_index : int;
  replica : int;
  tiles : int;
}

type t = {
  cores : assignment list array Lazy.t;
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

(* First-fit of equal-size items is a front-to-back fill: the cores
   before the one that took an item could not take it, and nothing placed
   since has made room there, so the next equal item's first fit starts
   at that same core.  Core [c] therefore takes
   [min left ((capacities.(c) - tiles_used.(c)) / tiles)] of a bucket's
   items at once (all of them for zero-tile items).  Buckets are filled
   from the largest tile count down; [run tiles c k] hears of each batch
   of [k] items of bucket [tiles] placed on core [c].  Returns [-1] when
   everything fits, else the first bucket that did not, with [!placed] of
   its items placed. *)
let fill ~capacities ~counts ~tiles_used ~placed run =
  let ncores = Array.length capacities in
  let failed = ref (-1) and tiles = ref (Array.length counts - 1) in
  while !failed < 0 && !tiles >= 0 do
    let t = !tiles and n = counts.(!tiles) in
    placed := 0;
    let c = ref 0 in
    while !placed < n && !c < ncores do
      let left = n - !placed in
      let k = if t = 0 then left else Int.min left ((capacities.(!c) - tiles_used.(!c)) / t) in
      if k > 0 then begin
        tiles_used.(!c) <- tiles_used.(!c) + (k * t);
        run t !c k;
        placed := !placed + k
      end;
      incr c
    done;
    if !placed < n then failed := t else decr tiles
  done;
  !failed

(* Every replica as an assignment, bucketed by tile count, each bucket in
   first-fit-decreasing order: the span's units from the last down, each
   unit's replicas from the last down (the order a stable sort of the
   prepend-built item list gives). *)
let buckets (units : Unit_gen.t) ~start_ ~stop ~reps ~capacity =
  let buckets = Array.make (capacity + 1) [] in
  for i = start_ to stop - 1 do
    let tiles = units.Unit_gen.units.(i).Unit_gen.tiles in
    for replica = 0 to reps.(i - start_) - 1 do
      buckets.(tiles) <- { unit_index = i; replica; tiles } :: buckets.(tiles)
    done
  done;
  buckets

let pack ?faults (units : Unit_gen.t) ~start_ ~stop ~replication =
  let chip = units.Unit_gen.chip in
  let ncores = chip.Config.cores in
  let capacity = chip.Config.core.Config.macros_per_core in
  let capacities = effective_capacities ?faults chip in
  if start_ < 0 || stop > Unit_gen.unit_count units || start_ >= stop then
    invalid_arg
      (Printf.sprintf "Mapping.pack: bad span [%d, %d) over %d units" start_ stop
         (Unit_gen.unit_count units));
  (* First-fit-decreasing by counts: tile counts are bounded by the core
     capacity, so per-size item counts replace the sorted item list. *)
  let reps = Array.make (stop - start_) 0 in
  let counts = Array.make (capacity + 1) 0 in
  for i = start_ to stop - 1 do
    let tiles = units.Unit_gen.units.(i).Unit_gen.tiles in
    let r = replication i in
    if r < 1 then
      invalid_arg (Printf.sprintf "Mapping.pack: replication %d < 1 for unit %d" r i);
    if tiles > capacity then
      invalid_arg
        (Printf.sprintf "Mapping.pack: unit %d exceeds a core (%d tiles > %d macros)" i
           tiles capacity);
    reps.(i - start_) <- r;
    counts.(tiles) <- counts.(tiles) + r
  done;
  let tiles_used = Array.make ncores 0 in
  let placed = ref 0 in
  let failed = fill ~capacities ~counts ~tiles_used ~placed (fun _ _ _ -> ()) in
  if failed >= 0 then begin
    let item = List.nth (buckets units ~start_ ~stop ~reps ~capacity).(failed) !placed in
    Error
      (Printf.sprintf "unit %d replica %d (%d tiles) does not fit" item.unit_index
         item.replica item.tiles)
  end
  else
    (* The per-core lists replay the same fill, handing each batch its
       slice of the bucket's items; only the scheduler and [core_of_unit]
       read them. *)
    let cores =
      lazy
        (let cores = Array.make ncores [] in
         let pending = buckets units ~start_ ~stop ~reps ~capacity in
         ignore
           (fill ~capacities ~counts ~tiles_used:(Array.make ncores 0) ~placed:(ref 0)
              (fun tiles c k ->
                for _ = 1 to k do
                  match pending.(tiles) with
                  | item :: rest ->
                    cores.(c) <- item :: cores.(c);
                    pending.(tiles) <- rest
                  | [] -> assert false
                done));
         Array.map List.rev cores)
    in
    Ok
      {
        cores;
        tiles_used;
        total_tiles = Array.fold_left ( + ) 0 tiles_used;
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
    (Lazy.force t.cores);
  match !found with
  | Some c -> c
  | None ->
    invalid_arg
      (Printf.sprintf "Mapping.core_of_unit: unit %d replica %d is not placed" unit_index
         replica)
