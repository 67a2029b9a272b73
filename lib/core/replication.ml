open Compass_arch

type t = {
  per_layer : (Compass_nn.Graph.node * int) list;
  tiles_used : int;
  spare_tiles : int;
}

type placement = {
  replication : t;
  mapping : Mapping.t;
}

let replication_of t node =
  Option.value ~default:1 (List.assoc_opt node t.per_layer)

let max_replication t = List.fold_left (fun acc (_, r) -> max acc r) 1 t.per_layer

(* The greedy's increments, oldest first, for the fragmentation undo.  One
   buffer per domain, reused across calls: recording an increment allocates
   only when a call outgrows every earlier call on that domain. *)
type undo = {
  mutable increments : int array;  (* layer indices *)
  mutable count : int;
}

let undo_key = Domain.DLS.new_key (fun () -> { increments = [||]; count = 0 })

let place ?faults ?layers ctx ~batch ~start_ ~stop =
  if batch < 1 then invalid_arg "Replication.place: batch < 1";
  let units = Dataflow.units ctx in
  let chip = units.Unit_gen.chip in
  let budget =
    match faults with
    | None -> Config.total_macros chip
    | Some f ->
      Fault.total_capacity f ~macros_per_core:chip.Config.core.Config.macros_per_core
  in
  let layer_list =
    match layers with
    | Some l -> l
    | None -> Perf_model.span_layers ctx ~start_ ~stop
  in
  let layers = Array.of_list layer_list in
  let n = Array.length layers in
  let rep = Array.make n 1 in
  let tiles l = layers.(l).Perf_model.tiles_in_span in
  let used = ref (Array.fold_left (fun acc p -> acc + p.Perf_model.tiles_in_span) 0 layers) in
  (* Per-layer constants of the greedy loop, hoisted out of the O(n) scans.
     Each is the exact left-associated prefix of the original expression, so
     the floats (and therefore every greedy decision) are unchanged. *)
  let fbatch = float_of_int batch in
  let wl = Compass_arch.Crossbar.write_latency_s chip.Config.crossbar in
  let fcores = float_of_int chip.Config.cores in
  (* stage l = mvms * op_time / rep; the numerator is constant, and the
     value only changes when [rep.(l)] does, so both it and the replica's
     marginal saving are cached per layer and refreshed on increment.  The
     greedy scans below then compare cached floats instead of re-dividing. *)
  let stage_num =
    Array.map
      (fun p -> float_of_int p.Perf_model.mvms *. p.Perf_model.op_time_s)
      layers
  in
  let stage_arr = Array.map (fun num -> num /. 1.) stage_num in
  let stage l = stage_arr.(l) in
  (* Marginal cost of one more replica: its macros must be programmed at
     every weight replacement; cores program in parallel, so the added time
     is roughly the replica's rows spread across the chip. *)
  let write_cost_arr =
    Array.init n (fun l -> float_of_int (tiles l) *. wl /. fcores)
  in
  let write_cost l = write_cost_arr.(l) in
  let saving_num =
    Array.map
      (fun p -> fbatch *. float_of_int p.Perf_model.mvms *. p.Perf_model.op_time_s)
      layers
  in
  let saving_at l r =
    let r = float_of_int r in
    saving_num.(l) *. ((1. /. r) -. (1. /. (r +. 1.)))
  in
  let saving_arr = Array.init n (fun l -> saving_at l 1) in
  let compute_saving l = saving_arr.(l) in
  let set_rep l r =
    rep.(l) <- r;
    stage_arr.(l) <- stage_num.(l) /. float_of_int r;
    saving_arr.(l) <- saving_at l r
  in
  let max_rep = Array.map Perf_model.max_useful_replication layers in
  (* Greedy: replicate the current bottleneck while capacity allows, the
     bottleneck can still improve, and the batch amortizes the extra
     programming (the paper's joint replacement/replication trade-off). *)
  let undo = Domain.DLS.get undo_key in
  undo.count <- 0;
  let rec grow () =
    (* One scan finds both the worst replicable stage (the first on ties)
       and the global worst stage. *)
    let bottleneck = ref (-1) and global_worst = ref 0. in
    for l = 0 to n - 1 do
      let s = stage l in
      (* [max] on floats, without the polymorphic compare. *)
      if not (!global_worst >= s) then global_worst := s;
      if layers.(l).Perf_model.mvms > 1
         && rep.(l) < max_rep.(l)
         && tiles l > 0
         && !used + tiles l <= budget
         && compute_saving l > write_cost l
      then
        if !bottleneck < 0 || s > stage !bottleneck then bottleneck := l
    done;
    (* Only replicating the true pipeline bottleneck helps; if the worst
       replicable stage is not the global bottleneck, stop. *)
    if !bottleneck >= 0 && stage !bottleneck >= !global_worst *. (1. -. 1e-9) then begin
      let l = !bottleneck in
      set_rep l (rep.(l) + 1);
      used := !used + tiles l;
      if undo.count = Array.length undo.increments then begin
        let bigger = Array.make (Int.max 64 (2 * undo.count)) 0 in
        Array.blit undo.increments 0 bigger 0 undo.count;
        undo.increments <- bigger
      end;
      undo.increments.(undo.count) <- l;
      undo.count <- undo.count + 1;
      grow ()
    end
  in
  if n > 0 then grow ();
  (* Pack asks for the units in ascending order and the span's layers are
     in unit order, so a cursor over [layers] finds each unit's layer
     moving forward; a unit whose layer is absent replicates 1x. *)
  let cursor = ref 0 in
  let rep_of_unit i =
    let node = Unit_gen.layer_of_unit units i in
    let steps = ref 0 in
    while !steps < n && layers.(!cursor).Perf_model.node <> node do
      cursor := (!cursor + 1) mod n;
      incr steps
    done;
    if !steps < n then rep.(!cursor) else 1
  in
  (* Bin-packing may fail even under the tile budget (fragmentation): undo
     the most recent increments until placement succeeds. *)
  let try_pack () = Mapping.pack ?faults units ~start_ ~stop ~replication:rep_of_unit in
  let rec shrink () =
    match try_pack () with
    | Ok m -> m
    | Error msg ->
      if undo.count = 0 then invalid_arg ("Replication.place: infeasible span: " ^ msg);
      undo.count <- undo.count - 1;
      let l = undo.increments.(undo.count) in
      set_rep l (rep.(l) - 1);
      used := !used - tiles l;
      shrink ()
  in
  let mapping = shrink () in
  {
    replication =
      {
        per_layer = List.mapi (fun l p -> (p.Perf_model.node, rep.(l))) layer_list;
        tiles_used = !used;
        spare_tiles = budget - !used;
      };
    mapping;
  }
