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

let sum_by pred records =
  List.fold_left
    (fun acc r -> if pred r.kind then acc +. float_of_int r.bytes else acc)
    0. records

let total_bytes records = sum_by (fun _ -> true) records
let read_bytes records = sum_by (fun k -> k = Read) records
let write_bytes records = sum_by (fun k -> k = Write) records

let pp_record ppf r =
  Format.fprintf ppf "0x%08x %s %d %s" r.addr
    (match r.kind with Read -> "READ" | Write -> "WRITE")
    r.bytes r.tag

let to_lines records =
  String.concat "\n" (List.map (Format.asprintf "%a" pp_record) records)
