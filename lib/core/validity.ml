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
  let n = Partition.partition_count group in
  let rec from k =
    k = n
    || is_valid t ~start_:(Partition.cut group k) ~stop:(Partition.cut group (k + 1))
       && from (k + 1)
  in
  Partition.total_units group = size t && from 0

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
   lands exactly on [hi], and prepend the stops to [acc], last stop first.
   Half the time jump as far as possible; otherwise uniform — this biases
   early populations towards fewer partitions.  The single bias policy
   shared by {!random_group} and {!random_group_around}: the draw sequence
   (bool, then maybe int_in) is part of the bit-identical-results
   contract. *)
let random_stops rng t ~lo ~hi acc =
  let acc = ref acc and pos = ref lo in
  while !pos < hi do
    let bound = Int.min t.max_end_.(!pos) hi in
    let stop =
      if Compass_util.Rng.bool rng then bound
      else Compass_util.Rng.int_in rng (!pos + 1) bound
    in
    acc := stop :: !acc;
    pos := stop
  done;
  !acc

(* The group whose cuts are [rev_cuts], last cut first. *)
let group_of_rev_cuts rev_cuts =
  let n = List.length rev_cuts in
  let cuts = Array.make n 0 in
  List.iteri (fun i c -> cuts.(n - 1 - i) <- c) rev_cuts;
  Partition.of_cuts cuts

let random_group rng t = group_of_rev_cuts (random_stops rng t ~lo:0 ~hi:(size t) [ 0 ])

let random_group_around rng t (span : Partition.span) =
  let prefix = random_stops rng t ~lo:0 ~hi:span.Partition.start_ [ 0 ] in
  group_of_rev_cuts
    (random_stops rng t ~lo:span.Partition.stop ~hi:(size t)
       (span.Partition.stop :: prefix))

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
