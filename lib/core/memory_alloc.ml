type block = {
  addr : int;
  bytes : int;
  tag : string;
}

type t = {
  base : int;
  arena : int;
  mutable free_list : (int * int) list; (* (addr, bytes), ascending, coalesced *)
  mutable live : block list; (* ascending by addr *)
  mutable live_total : int;
  mutable high_water : int;
}

(* Sizes and addresses are rounded to this many bytes. *)
let alignment = 64

let create ?(base = 0) ~capacity () =
  if capacity <= 0 then invalid_arg "Memory_alloc.create: non-positive capacity";
  if base < 0 then invalid_arg "Memory_alloc.create: negative base";
  {
    base;
    arena = capacity;
    free_list = [ (base, capacity) ];
    live = [];
    live_total = 0;
    high_water = 0;
  }

let round_up n = (n + alignment - 1) / alignment * alignment

let alloc t ~bytes ~tag =
  if bytes <= 0 then invalid_arg "Memory_alloc.alloc: non-positive size";
  let need = round_up bytes in
  let rec take acc = function
    | [] -> raise (Failure (Printf.sprintf "Memory_alloc: no block for %d bytes (%s)" need tag))
    | (addr, avail) :: rest when avail >= need ->
      let remainder = if avail > need then [ (addr + need, avail - need) ] else [] in
      t.free_list <- List.rev_append acc (remainder @ rest);
      addr
    | blk :: rest -> take (blk :: acc) rest
  in
  let addr = take [] t.free_list in
  let block = { addr; bytes = need; tag } in
  t.live <- List.sort (fun a b -> compare a.addr b.addr) (block :: t.live);
  t.live_total <- t.live_total + need;
  t.high_water <- max t.high_water t.live_total;
  addr

let free t addr =
  match List.partition (fun b -> b.addr = addr) t.live with
  | [], _ -> invalid_arg (Printf.sprintf "Memory_alloc.free: 0x%x is not live" addr)
  | [ block ], rest ->
    t.live <- rest;
    t.live_total <- t.live_total - block.bytes;
    let merged =
      List.sort compare ((block.addr, block.bytes) :: t.free_list)
    in
    (* Coalesce adjacent free blocks. *)
    let rec coalesce = function
      | (a1, s1) :: (a2, s2) :: rest when a1 + s1 = a2 -> coalesce ((a1, s1 + s2) :: rest)
      | blk :: rest -> blk :: coalesce rest
      | [] -> []
    in
    t.free_list <- coalesce merged
  | _ :: _ :: _, _ -> assert false

let live_blocks t = List.map (fun b -> (b.addr, b.bytes, b.tag)) t.live
let high_water_bytes t = t.high_water

let check_invariants t =
  let segments =
    List.sort compare
      (List.map (fun b -> (b.addr, b.bytes, `Live)) t.live
      @ List.map (fun (a, s) -> (a, s, `Free)) t.free_list)
  in
  let rec walk expected = function
    | [] -> if expected = t.base + t.arena then Ok () else Error "arena not fully covered"
    | (addr, bytes, _) :: rest ->
      if addr <> expected then Error (Printf.sprintf "gap or overlap at 0x%x" addr)
      else if bytes <= 0 then Error "non-positive segment"
      else walk (addr + bytes) rest
  in
  walk t.base segments
