type core_status =
  | Healthy
  | Dead
  | Degraded of int

type t = {
  statuses : core_status array;
  endurance_budget : float option;
  transient_cells : int;
  weight_flips : int;
  drift : float option;
}

let make ?endurance_budget ?(transient_cells = 0) ?(weight_flips = 0) ?drift statuses =
  Array.iteri
    (fun c status ->
      match status with
      | Degraded k when k < 1 ->
        invalid_arg
          (Printf.sprintf "Fault.make: core %d degraded to %d macros (use Dead for 0)" c k)
      | _ -> ())
    statuses;
  (match endurance_budget with
  | Some b when b <= 0. -> invalid_arg "Fault.make: non-positive endurance budget"
  | _ -> ());
  if transient_cells < 0 then invalid_arg "Fault.make: negative transient cell count";
  if weight_flips < 0 then invalid_arg "Fault.make: negative weight-flip count";
  (match drift with
  | Some d when (not (d > 0.)) || d > 1. ->
    invalid_arg "Fault.make: drift must be in (0, 1]"
  | _ -> ());
  { statuses = Array.copy statuses; endurance_budget; transient_cells; weight_flips; drift }

let healthy ~cores =
  if cores <= 0 then invalid_arg "Fault.healthy: non-positive core count";
  {
    statuses = Array.make cores Healthy;
    endurance_budget = None;
    transient_cells = 0;
    weight_flips = 0;
    drift = None;
  }

let cores t = Array.length t.statuses

let status t c =
  if c < 0 || c >= cores t then invalid_arg "Fault.status: core out of range";
  t.statuses.(c)

let endurance_budget t = t.endurance_budget

let effective_capacity t ~macros_per_core c =
  match status t c with
  | Healthy -> macros_per_core
  | Dead -> 0
  | Degraded k -> min k macros_per_core

let capacities t ~macros_per_core =
  Array.init (cores t) (fun c -> effective_capacity t ~macros_per_core c)

let total_capacity t ~macros_per_core =
  Array.fold_left ( + ) 0 (capacities t ~macros_per_core)

let dead_count t =
  Array.fold_left (fun acc s -> if s = Dead then acc + 1 else acc) 0 t.statuses

let degraded_count t =
  Array.fold_left
    (fun acc s -> match s with Degraded _ -> acc + 1 | _ -> acc)
    0 t.statuses

let transient_cells t = t.transient_cells
let weight_flips t = t.weight_flips
let drift t = t.drift
let has_cell_faults t = t.transient_cells > 0 || t.weight_flips > 0 || t.drift <> None

let is_trivial t =
  t.endurance_budget = None
  && (not (has_cell_faults t))
  && Array.for_all (fun s -> s = Healthy) t.statuses

(* Textual scenario description; [realize] turns it into a concrete [t].
   Grammar (see docs/FORMATS.md):

     spec    := "none" | clause (';' clause)*
     clause  := "dead"     ':' int (',' int)*
              | "degraded" ':' int '=' int (',' int '=' int)*
              | "random"   ':' kind '=' int (',' kind '=' int)*   kind := dead|degraded
              | "endurance" ':' float                              (writes per macro)
              | "transient" ':' int      (stuck-at cells that clear on retry)
              | "flip"      ':' int      (persistent single-bit weight flips)
              | "drift"     ':' float    (conductance drift rate, (0,1]) *)

type spec = {
  spec_dead : int list;
  spec_degraded : (int * int) list;
  spec_random_dead : int;
  spec_random_degraded : int;
  spec_endurance : float option;
  spec_transient : int;
  spec_flip : int;
  spec_drift : float option;
}

let empty_spec =
  {
    spec_dead = [];
    spec_degraded = [];
    spec_random_dead = 0;
    spec_random_degraded = 0;
    spec_endurance = None;
    spec_transient = 0;
    spec_flip = 0;
    spec_drift = None;
  }

module Located = Compass_util.Located

(* Syntax errors are located at the offending token's line and column
   (a newline separates clauses like ';'); the caller names the spec's
   source. *)
let parse_int what tok =
  Located.int ~valid:(fun n -> n >= 0)
    (Printf.sprintf "bad %s %S (expected a non-negative integer)" what)
    (Located.trim tok)

let parse_assign what (tok : Located.token) =
  match Located.split '=' tok with
  | [ k; v ] -> (parse_int what k, parse_int what v)
  | _ -> Located.at tok "bad %s %S (expected core=value)" what tok.text

let parse spec =
  if String.lowercase_ascii (String.trim spec) = "none" then empty_spec
  else
    List.fold_left
      (fun acc (clause : Located.token) ->
        match Located.cut ':' clause with
        | None -> Located.at clause "clause %S has no ':'" clause.text
        | Some (key, value) ->
          let key = Located.trim key in
          let items = Located.words ~sep:',' value in
          match String.lowercase_ascii key.text with
          | "dead" ->
            { acc with spec_dead = acc.spec_dead @ List.map (parse_int "core") items }
          | "degraded" ->
            let pairs =
              List.map
                (fun item ->
                  let ((_, k) as pair) = parse_assign "degradation" item in
                  if k < 1 then Located.at item "degraded capacity must be >= 1 (use dead:)";
                  pair)
                items
            in
            { acc with spec_degraded = acc.spec_degraded @ pairs }
          | "random" ->
            List.fold_left
              (fun acc (item : Located.token) ->
                match Located.split '=' item with
                | [ kind; n ] -> (
                  let n = parse_int "count" n in
                  let kind = Located.trim kind in
                  match String.lowercase_ascii kind.text with
                  | "dead" -> { acc with spec_random_dead = acc.spec_random_dead + n }
                  | "degraded" ->
                    { acc with spec_random_degraded = acc.spec_random_degraded + n }
                  | other -> Located.at kind "unknown random kind %S" other)
                | _ ->
                  Located.at item "bad random item %S (expected dead=N or degraded=N)"
                    item.text)
              acc items
          | "endurance" ->
            let b =
              Located.float ~valid:(fun b -> b > 0.)
                (Printf.sprintf "bad endurance %S (expected a positive number)")
                (Located.trim value)
            in
            { acc with spec_endurance = Some b }
          | "transient" ->
            { acc with spec_transient = acc.spec_transient + parse_int "transient count" value }
          | "flip" -> { acc with spec_flip = acc.spec_flip + parse_int "flip count" value }
          | "drift" ->
            let d =
              Located.float ~valid:(fun d -> d > 0. && d <= 1.)
                (Printf.sprintf "bad drift %S (expected a rate in (0, 1])")
                (Located.trim value)
            in
            { acc with spec_drift = Some d }
          | other -> Located.at key "unknown clause %S" other)
      empty_spec
      (List.concat_map (Located.words ~sep:';') (Located.lines spec))

let spec_to_string s =
  let clauses = ref [] in
  (match s.spec_drift with
  (* Full precision, not %g: same round-trip requirement as endurance. *)
  | Some d -> clauses := ("drift:" ^ Compass_util.Artifact.float_token d) :: !clauses
  | None -> ());
  if s.spec_flip > 0 then clauses := Printf.sprintf "flip:%d" s.spec_flip :: !clauses;
  if s.spec_transient > 0 then
    clauses := Printf.sprintf "transient:%d" s.spec_transient :: !clauses;
  (match s.spec_endurance with
  (* Full precision, not %g: the spec must round-trip the exact budget or
     a reloaded plan computes a different projected lifetime. *)
  | Some b ->
    clauses := ("endurance:" ^ Compass_util.Artifact.float_token b) :: !clauses
  | None -> ());
  if s.spec_random_degraded > 0 then
    clauses := Printf.sprintf "random:degraded=%d" s.spec_random_degraded :: !clauses;
  if s.spec_random_dead > 0 then
    clauses := Printf.sprintf "random:dead=%d" s.spec_random_dead :: !clauses;
  if s.spec_degraded <> [] then
    clauses :=
      ("degraded:"
      ^ String.concat ","
          (List.map (fun (c, k) -> Printf.sprintf "%d=%d" c k) s.spec_degraded))
      :: !clauses;
  if s.spec_dead <> [] then
    clauses :=
      ("dead:" ^ String.concat "," (List.map string_of_int s.spec_dead)) :: !clauses;
  match !clauses with [] -> "none" | cs -> String.concat ";" cs

let realize spec ~seed ~cores ~macros_per_core =
  if cores <= 0 then invalid_arg "Fault.realize: non-positive core count";
  if macros_per_core <= 0 then invalid_arg "Fault.realize: non-positive macro count";
  let statuses = Array.make cores Healthy in
  let set c status =
    if c < 0 || c >= cores then
      invalid_arg
        (Printf.sprintf "Fault.realize: core %d out of range (chip has %d cores)" c cores);
    if statuses.(c) <> Healthy then
      invalid_arg (Printf.sprintf "Fault.realize: core %d listed twice" c);
    statuses.(c) <- status
  in
  List.iter (fun c -> set c Dead) spec.spec_dead;
  List.iter
    (fun (c, k) ->
      if k >= macros_per_core then
        invalid_arg
          (Printf.sprintf
             "Fault.realize: core %d degraded to %d macros but cores only have %d" c k
             macros_per_core);
      set c (Degraded k))
    spec.spec_degraded;
  let n_random = spec.spec_random_dead + spec.spec_random_degraded in
  if n_random > 0 then begin
    let healthy_idx =
      Array.to_list statuses
      |> List.mapi (fun c s -> (c, s))
      |> List.filter_map (fun (c, s) -> if s = Healthy then Some c else None)
    in
    if n_random > List.length healthy_idx then
      invalid_arg
        (Printf.sprintf "Fault.realize: %d random faults requested but only %d healthy cores"
           n_random (List.length healthy_idx));
    let healthy_arr = Array.of_list healthy_idx in
    let rng = Compass_util.Rng.create seed in
    let picks =
      Compass_util.Rng.sample_without_replacement rng n_random (Array.length healthy_arr)
    in
    List.iteri
      (fun i pick ->
        let c = healthy_arr.(pick) in
        if i < spec.spec_random_dead then statuses.(c) <- Dead
        else
          let k = Compass_util.Rng.int_in rng 1 (max 1 (macros_per_core - 1)) in
          statuses.(c) <- if k >= macros_per_core then Dead else Degraded k)
      picks
  end;
  make ?endurance_budget:spec.spec_endurance ~transient_cells:spec.spec_transient
    ~weight_flips:spec.spec_flip ?drift:spec.spec_drift statuses

let of_string spec ~seed ~cores ~macros_per_core =
  realize (parse spec) ~seed ~cores ~macros_per_core

(* A realized scenario re-serializes with fixed clauses only, so it parses
   back to the same scenario independent of the seed. *)
let to_spec t =
  let dead = ref [] and degraded = ref [] in
  Array.iteri
    (fun c s ->
      match s with
      | Dead -> dead := c :: !dead
      | Degraded k -> degraded := (c, k) :: !degraded
      | Healthy -> ())
    t.statuses;
  {
    empty_spec with
    spec_dead = List.rev !dead;
    spec_degraded = List.rev !degraded;
    spec_endurance = t.endurance_budget;
    spec_transient = t.transient_cells;
    spec_flip = t.weight_flips;
    spec_drift = t.drift;
  }

let to_string t = spec_to_string (to_spec t)

let pp ppf t =
  let n = cores t in
  if is_trivial t then Format.fprintf ppf "no faults (%d healthy cores)" n
  else begin
    let usable = n - dead_count t in
    Format.fprintf ppf "faults: %d dead, %d degraded (%d/%d cores usable)" (dead_count t)
      (degraded_count t) usable n;
    (match t.endurance_budget with
    | Some b -> Format.fprintf ppf ", endurance %g writes/macro" b
    | None -> ());
    if t.transient_cells > 0 then
      Format.fprintf ppf ", %d transient cell(s)" t.transient_cells;
    if t.weight_flips > 0 then Format.fprintf ppf ", %d weight flip(s)" t.weight_flips;
    match t.drift with
    | Some d -> Format.fprintf ppf ", drift %g" d
    | None -> ()
  end
