type mismatch = {
  unit_index : int;
  col : int;
  expected : int;
  actual : int;
}

(* Column-major code block: element (row r, column c) is
   codes.(c * rows + r). *)
let checksum_row ~rows ~cols codes =
  if Array.length codes <> rows * cols then
    invalid_arg "Abft.checksum_row: code block size mismatch";
  Array.init cols (fun c ->
      let sum = ref 0 in
      for r = 0 to rows - 1 do
        sum := !sum + codes.((c * rows) + r)
      done;
      !sum)

let verify ~unit_index ~rows ~cols ~codes ~checksum =
  if Array.length checksum <> cols then invalid_arg "Abft.verify: checksum length mismatch";
  let actual = checksum_row ~rows ~cols codes in
  let mismatches = ref [] in
  for c = cols - 1 downto 0 do
    if actual.(c) <> checksum.(c) then
      mismatches :=
        { unit_index; col = c; expected = checksum.(c); actual = actual.(c) }
        :: !mismatches
  done;
  !mismatches

let check_ops_per_mvm ~macro_ops = 2 * macro_ops
