open Compass_arch

type kind =
  | Stuck_at of int
  | Bit_flip of int
  | Drift of int

type site = {
  unit_index : int;
  row : int;
  col : int;
  kind : kind;
  transient : bool;
}

let unit_cells (u : Unit_gen.unit_t) =
  (u.Unit_gen.row_hi - u.Unit_gen.row_lo) * (u.Unit_gen.col_hi - u.Unit_gen.col_lo)

let total_cells units =
  Array.fold_left (fun acc u -> acc + unit_cells u) 0 units.Unit_gen.units

(* Corruption is exact integer arithmetic on the signed weight code; the
   result is guaranteed to differ from the clean code so every realized
   site is observable by an integer checksum comparison. *)
let corrupt_code ~bits kind code =
  let q = Compass_nn.Quant.levels bits in
  let clamp c = max (-q) (min q c) in
  let displaced c = if c > -q then c - 1 else c + 1 in
  let corrupted =
    match kind with
    | Stuck_at v -> clamp v
    | Bit_flip b ->
      (* Offset-binary storage: biased = code + q in [0, 2q]. *)
      let biased = code + q in
      clamp ((biased lxor (1 lsl b)) - q)
    | Drift d ->
      let c = clamp (code + d) in
      if c = code then clamp (code - d) else c
  in
  if corrupted = code then displaced code else corrupted

let drift_count units drift =
  match drift with
  | None -> 0
  | Some rate ->
    let total = float_of_int (total_cells units) in
    max 1 (int_of_float (Float.ceil (rate *. total)))

let realize units ~faults ~seed =
  let n_transient = Fault.transient_cells faults in
  let n_flip = Fault.weight_flips faults in
  let n_drift = drift_count units (Fault.drift faults) in
  let n = n_transient + n_flip + n_drift in
  if n = 0 then []
  else begin
    let total = total_cells units in
    if n > total then
      invalid_arg
        (Printf.sprintf "Inject.realize: %d cell faults requested but the model has %d cells"
           n total);
    let m = Array.length units.Unit_gen.units in
    let prefix = Array.make (m + 1) 0 in
    for i = 0 to m - 1 do
      prefix.(i + 1) <- prefix.(i) + unit_cells units.Unit_gen.units.(i)
    done;
    let bits = units.Unit_gen.chip.Config.crossbar.Crossbar.weight_bits in
    let q = Compass_nn.Quant.levels bits in
    let rng = Compass_util.Rng.create seed in
    let picks = Compass_util.Rng.sample_without_replacement rng n total in
    List.mapi
      (fun i cell ->
        (* Binary-search the owning unit in the prefix sums. *)
        let lo = ref 0 and hi = ref m in
        while !hi - !lo > 1 do
          let mid = (!lo + !hi) / 2 in
          if prefix.(mid) <= cell then lo := mid else hi := mid
        done;
        let unit_index = !lo in
        let u = units.Unit_gen.units.(unit_index) in
        let rows = u.Unit_gen.row_hi - u.Unit_gen.row_lo in
        let local = cell - prefix.(unit_index) in
        (* Column-major within the unit. *)
        let col = local / rows and row = local mod rows in
        let kind, transient =
          if i < n_transient then (Stuck_at (Compass_util.Rng.int_in rng (-q) q), true)
          else if i < n_transient + n_flip then
            (Bit_flip (Compass_util.Rng.int rng bits), false)
          else (Drift (if Compass_util.Rng.bool rng then 1 else -1), false)
        in
        { unit_index; row; col; kind; transient })
      picks
  end
