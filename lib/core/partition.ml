type span = {
  start_ : int;
  stop : int;
}

type t = int array

let check cuts =
  let n = Array.length cuts in
  if n < 2 then invalid_arg "Partition.of_cuts: need at least one partition";
  if cuts.(0) <> 0 then invalid_arg "Partition.of_cuts: first cut must be 0";
  for i = 1 to n - 1 do
    if cuts.(i) <= cuts.(i - 1) then
      invalid_arg "Partition.of_cuts: cuts must strictly increase"
  done

let checked cuts =
  check cuts;
  cuts

let of_cuts cuts = checked (Array.copy cuts)

let of_spans spans =
  match spans with
  | [] -> invalid_arg "Partition.of_spans: empty"
  | first :: _ ->
    if first.start_ <> 0 then invalid_arg "Partition.of_spans: must start at 0";
    let rec collect acc = function
      | [] -> List.rev acc
      | [ s ] -> List.rev (s.stop :: acc)
      | s :: (next :: _ as rest) ->
        if next.start_ <> s.stop then invalid_arg "Partition.of_spans: gap or overlap";
        collect (s.stop :: acc) rest
    in
    of_cuts (Array.of_list (0 :: collect [] spans))

let singleton m =
  if m <= 0 then invalid_arg "Partition.singleton: non-positive size";
  [| 0; m |]

let cuts t = Array.copy t

let partition_count t = Array.length t - 1

let total_units t = t.(Array.length t - 1)

let cut t k = t.(k)

let span_at t k =
  if k < 0 || k >= partition_count t then invalid_arg "Partition.span_at: out of range";
  { start_ = t.(k); stop = t.(k + 1) }

let spans t = List.init (partition_count t) (span_at t)

let partition_of_unit t u =
  if u < 0 || u >= total_units t then invalid_arg "Partition.partition_of_unit";
  (* Find the last cut <= u. *)
  let lo = ref 0 and hi = ref (Array.length t - 1) in
  while !hi - !lo > 1 do
    let mid = (!lo + !hi) / 2 in
    if t.(mid) <= u then lo := mid else hi := mid
  done;
  !lo

let equal a b = a = b

let merge t k =
  if k < 0 || k + 1 >= partition_count t then invalid_arg "Partition.merge: out of range";
  checked (Array.init (Array.length t - 1) (fun i -> if i <= k then t.(i) else t.(i + 1)))

let split t k ~at =
  let s = span_at t k in
  if at <= s.start_ || at >= s.stop then invalid_arg "Partition.split: cut outside span";
  checked
    (Array.init (Array.length t + 1) (fun i ->
         if i <= k then t.(i) else if i = k + 1 then at else t.(i - 1)))

let move t k ~delta =
  if k < 0 || k + 1 >= partition_count t then invalid_arg "Partition.move: out of range";
  let moved = Array.copy t in
  let cut = moved.(k + 1) + delta in
  if cut <= moved.(k) || cut >= moved.(k + 2) then
    invalid_arg "Partition.move: would empty a partition";
  moved.(k + 1) <- cut;
  checked moved
