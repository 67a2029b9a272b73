type kind =
  | Read
  | Write

type record = {
  kind : kind;
  addr : int;
  bytes : int;
  tag : string;
}

let make kind ?(tag = "") ~addr ~bytes () =
  if addr < 0 then invalid_arg "Trace: negative address";
  if bytes <= 0 then invalid_arg "Trace: non-positive size";
  { kind; addr; bytes; tag }

let read = make Read
let write = make Write

let total_bytes records =
  List.fold_left (fun acc r -> acc +. float_of_int r.bytes) 0. records

