type t = {
  units : Unit_gen.t;
  max_end_ : int array;
}

let units t = t.units
let size t = Array.length t.max_end_

let build ?faults (units : Unit_gen.t) =
  let m = Unit_gen.unit_count units in
  let chip = units.Unit_gen.chip in
  let budget =
    match faults with
    | None -> Compass_arch.Config.total_macros chip
    | Some f ->
      Compass_arch.Fault.total_capacity f
        ~macros_per_core:chip.Compass_arch.Config.core.Compass_arch.Config.macros_per_core
  in
  let tiles = Array.map (fun u -> u.Unit_gen.tiles) units.Unit_gen.units in
  let prefix = units.Unit_gen.tiles_prefix in
  let max_end_ = Array.make m 0 in
  (* Two-pointer capacity bound, then walk back over bin-packing failures so
     that every stop <= max_end is feasible. *)
  let cap_end = ref 0 in
  for a = 0 to m - 1 do
    if !cap_end < a + 1 then cap_end := a + 1;
    while !cap_end < m && prefix.(!cap_end + 1) - prefix.(a) <= budget do
      incr cap_end
    done;
    let b = ref !cap_end in
    while !b > a + 1 && not (Mapping.feasible ?faults units ~start_:a ~stop:!b) do
      decr b
    done;
    (* Fault-free, a single unit always fits a core by construction; under
       faults the surviving cores may all be too small, which makes the whole
       model uncompilable on this chip — fail loudly rather than emit a map
       whose minimal spans are lies. *)
    if faults <> None && not (Mapping.feasible ?faults units ~start_:a ~stop:(a + 1)) then
      invalid_arg
        (Printf.sprintf
           "Validity.build: unit %d (%d tiles) fits no usable core under the fault \
            scenario"
           a tiles.(a));
    max_end_.(a) <- !b
  done;
  { units; max_end_ }

let max_end t a =
  if a < 0 || a >= size t then invalid_arg "Validity.max_end: out of range";
  t.max_end_.(a)

let is_valid t ~start_ ~stop =
  start_ >= 0 && start_ < size t && stop > start_ && stop <= t.max_end_.(start_)

let group_valid t group =
  Partition.total_units group = size t
  && List.for_all
       (fun (s : Partition.span) ->
         is_valid t ~start_:s.Partition.start_ ~stop:s.Partition.stop)
       (Partition.spans group)

let density t =
  let m = size t in
  if m = 0 then 0.
  else begin
    let valid = ref 0 in
    for a = 0 to m - 1 do
      valid := !valid + (t.max_end_.(a) - a)
    done;
    let all = m * (m + 1) / 2 in
    float_of_int !valid /. float_of_int all
  end

(* Randomly tile [lo, hi) with valid spans, clamping each step so the walk
   lands exactly on [hi].  Half the time jump as far as possible; otherwise
   uniform — this biases early populations towards fewer partitions.  The
   single bias policy shared by {!random_group} and the GA's FixedRandom
   mutation: the draw sequence (bool, then maybe int_in) is part of the
   bit-identical-results contract. *)
let random_cover rng t ~lo ~hi =
  let rec walk acc pos =
    if pos >= hi then List.rev acc
    else
      let bound = min t.max_end_.(pos) hi in
      let stop =
        if Compass_util.Rng.bool rng then bound
        else Compass_util.Rng.int_in rng (pos + 1) bound
      in
      walk ({ Partition.start_ = pos; stop } :: acc) stop
  in
  walk [] lo

let random_group rng t = Partition.of_spans (random_cover rng t ~lo:0 ~hi:(size t))

let render ?(cells = 32) t =
  let m = size t in
  let title =
    Printf.sprintf "validity map: %s on chip %s (M=%d, density %.2f)"
      (Compass_nn.Graph.name t.units.Unit_gen.model)
      t.units.Unit_gen.chip.Compass_arch.Config.label m (density t)
  in
  if m = 0 then title ^ "\n(empty: model has no partition units)\n"
  else begin
    let cells = max 1 (min cells m) in
    let scale i = i * m / cells in
    let cell r c =
      (* Row = start bucket, column = end bucket (paper's (x_i, x_j) axes). *)
      let a = scale r in
      let b = min m (scale (c + 1)) in
      if b <= a then ' ' else if b <= t.max_end_.(a) then '#' else '.'
    in
    Compass_util.Ascii_plot.heat_map ~title ~render_cell:cell ~rows:cells ~cols:cells
  end
