type t = { mutable state : int64 }

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed = { state = Int64.of_int seed }

(* splitmix64: one 64-bit multiply-xor-shift chain per draw. *)
let next_int64 t =
  t.state <- Int64.add t.state golden_gamma;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

(* OCaml's native int is 63-bit; mask to 62 bits to stay non-negative. *)
let next_nonneg t = Int64.to_int (Int64.logand (next_int64 t) (Int64.of_int max_int))

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  next_nonneg t mod bound

let int_in t lo hi =
  if lo > hi then invalid_arg "Rng.int_in: lo > hi";
  lo + int t (hi - lo + 1)

let float t bound =
  let mantissa = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (mantissa /. 9007199254740992.0)

let bool t = Int64.logand (next_int64 t) 1L = 1L

let pick_array t xs =
  if Array.length xs = 0 then invalid_arg "Rng.pick_array: empty array";
  xs.(int t (Array.length xs))

let shuffle t xs =
  for i = Array.length xs - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = xs.(i) in
    xs.(i) <- xs.(j);
    xs.(j) <- tmp
  done

let sample_without_replacement t n bound =
  if n > bound then invalid_arg "Rng.sample_without_replacement: n > bound";
  let pool = Array.init bound (fun i -> i) in
  shuffle t pool;
  Array.to_list (Array.sub pool 0 n)

let split t = { state = next_int64 t }
let state t = t.state
let of_state s = { state = s }
