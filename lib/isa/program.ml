type t = {
  core_id : int;
  instrs : Instr.t list;
}

let make ~core_id instrs =
  if core_id < 0 then invalid_arg "Program.make: negative core id";
  { core_id; instrs }

let length t = List.length t.instrs

let kind_name = function
  | Instr.Weight_write _ -> "weight_write"
  | Instr.Load _ -> "load"
  | Instr.Store _ -> "store"
  | Instr.Mvm _ -> "mvm"
  | Instr.Vfu _ -> "vfu"
  | Instr.Send _ -> "send"
  | Instr.Recv _ -> "recv"
  | Instr.Sync _ -> "sync"
  | Instr.Check _ -> "check"

let instruction_mix programs =
  let counts = Hashtbl.create 8 in
  let bump i =
    let k = kind_name i in
    Hashtbl.replace counts k (1 + Option.value ~default:0 (Hashtbl.find_opt counts k))
  in
  List.iter (fun p -> List.iter bump p.instrs) programs;
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) counts [])

let validate ~cores programs =
  let ids = List.map (fun p -> p.core_id) programs in
  let sorted = List.sort_uniq compare ids in
  if List.length sorted <> List.length ids then Error "duplicate core ids"
  else if List.exists (fun id -> id < 0 || id >= cores) ids then
    Error "core id out of range"
  else
    (* Every send must pair with exactly one recv on (channel, src, dst, bytes). *)
    let sends = Hashtbl.create 16 in
    let recvs = Hashtbl.create 16 in
    let record p = function
      | Instr.Send { bytes; dst; channel } ->
        Hashtbl.add sends (channel, p.core_id, dst) bytes
      | Instr.Recv { bytes; src; channel } -> Hashtbl.add recvs (channel, src, p.core_id) bytes
      | Instr.Weight_write _ | Instr.Load _ | Instr.Store _ | Instr.Mvm _ | Instr.Vfu _
      | Instr.Sync _ | Instr.Check _ ->
        ()
    in
    List.iter (fun p -> List.iter (record p) p.instrs) programs;
    let mismatch = ref None in
    let check key bytes =
      match Hashtbl.find_opt recvs key with
      | Some b when b = bytes -> Hashtbl.remove recvs key
      | Some _ -> mismatch := Some "send/recv byte mismatch"
      | None -> mismatch := Some "send without matching recv"
    in
    Hashtbl.iter check sends;
    match !mismatch with
    | Some msg -> Error msg
    | None -> if Hashtbl.length recvs > 0 then Error "recv without matching send" else Ok ()

let pp ppf t =
  Format.fprintf ppf "core %d (%d instrs):@." t.core_id (length t);
  List.iter (fun i -> Format.fprintf ppf "  %a@." Instr.pp i) t.instrs
