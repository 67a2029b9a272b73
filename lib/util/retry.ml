type t = { retries : int; base_s : float; jitter : Rng.t option }

let cap_s = 60.

let make ?jitter_seed ~retries ~base_s () =
  if retries < 0 then invalid_arg "Retry.make: retries < 0";
  (* [not (>=)] also rejects NaN. *)
  if not (base_s >= 0.) then invalid_arg "Retry.make: negative or NaN base_s";
  { retries; base_s; jitter = Option.map Rng.create jitter_seed }

(* A zero base stays zero, not NaN once [2. ** k] overflows. *)
let delay t ~attempt =
  let raw = if t.base_s = 0. then t.base_s else t.base_s *. (2. ** float_of_int attempt) in
  let jitter = match t.jitter with None -> 1. | Some rng -> 1. +. (0.25 *. Rng.float rng 1.) in
  Float.min cap_s (raw *. jitter)

type decision =
  | Again of float
  | Exhausted
  | Expired

let next ?budget t ~attempt =
  if attempt >= t.retries then Exhausted
  else
    match budget with
    | Some b when Budget.expired b -> Expired
    | _ -> Again (delay t ~attempt)
