(* Order statistics for the benchmark.  [median] and [quartiles] follow
   Python's [statistics.median] and [statistics.quantiles(n=4)]
   ('exclusive' method), so a spread computed here agrees with one
   computed from the same values by any script that uses those. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.median: empty"
  | a ->
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let quartiles xs =
  match sorted xs with
  | [||] -> invalid_arg "Stats.quartiles: empty"
  | [| x |] -> (x, x, x)
  | a ->
    let n = Array.length a in
    let m = n + 1 in
    let q i =
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

(* Distance between the first and third quartile as a share of the
   median: the run-to-run spread a bound is compared against. *)
let spread xs =
  let q1, _, q3 = quartiles xs in
  let m = median xs in
  if m = 0. then if q3 -. q1 = 0. then 0. else infinity else (q3 -. q1) /. Float.abs m

type tail = {
  pct : int;  (** the percentile reported *)
  value : float;
  beyond : int;  (** samples strictly ranked above it *)
  samples : int;
}

(* The highest whole percentile whose nearest-rank value still has at
   least ten samples ranked above it.  [None] below eleven samples. *)
let tail xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 11 then None
  else
    let pct = 100 * (n - 10) / n in
    let rank = max 1 ((pct * n + 99) / 100) in
    Some { pct; value = a.(rank - 1); beyond = n - rank; samples = n }
