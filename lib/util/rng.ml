(* The 64-bit state, unboxed in an 8-byte buffer: a mutable [int64] field
   would box a fresh [int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let of_state s =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 s;
  t

let create seed = of_state (Int64.of_int seed)

(* splitmix64: one 64-bit multiply-xor-shift chain per draw.  Inlined so
   that no caller boxes the result. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
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

let split t = of_state (next_int64 t)
let state t = Bytes.get_int64_le t 0
