let sum = List.fold_left ( +. ) 0.

let mean = function
  | [] -> 0.
  | xs -> sum xs /. float_of_int (List.length xs)

let geomean = function
  | [] -> 0.
  | xs ->
    let log_one x =
      if x <= 0. then invalid_arg "Stats.geomean: non-positive value";
      log x
    in
    exp (mean (List.map log_one xs))

let minimum = function
  | [] -> invalid_arg "Stats.minimum: empty list"
  | x :: xs -> List.fold_left min x xs

let maximum = function
  | [] -> invalid_arg "Stats.maximum: empty list"
  | x :: xs -> List.fold_left max x xs

let percentile p xs =
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p out of range";
  match xs with
  | [] -> invalid_arg "Stats.percentile: empty list"
  | xs ->
    let sorted = List.sort compare xs in
    let n = List.length sorted in
    let rank = int_of_float (ceil (p /. 100. *. float_of_int n)) in
    let rank = max 1 (min n rank) in
    List.nth sorted (rank - 1)

