type t = {
  file : string option;
  line : int;
  col : int;
  msg : string;
}

exception Error of t

let fail ?(line = 0) ?(col = 0) fmt =
  Printf.ksprintf (fun msg -> raise (Error { file = None; line; col; msg })) fmt

let render (e : t) =
  match e.file with
  | None when e.line = 0 -> e.msg
  | None -> Printf.sprintf "line %d: %s" e.line e.msg
  | Some file ->
    let pos =
      if e.line = 0 then ""
      else if e.col = 0 then Printf.sprintf ":%d" e.line
      else Printf.sprintf ":%d:%d" e.line e.col
    in
    Printf.sprintf "%s%s: %s" file pos e.msg

let in_file source f =
  try f ()
  with Error ({ file = None; _ } as e) -> raise (Error { e with file = Some source })

let shift ~line ~col f =
  try f ()
  with Error (e : t) ->
    raise
      (Error
         (if e.line = 0 then { e with line; col = 0 }
          else
            {
              e with
              line = line + e.line - 1;
              col = (if e.line = 1 && e.col > 0 then col + e.col - 1 else e.col);
            }))

type token = {
  text : string;
  line : int;
  col : int;
}

let lines text =
  List.mapi (fun i text -> { text; line = i + 1; col = 1 }) (String.split_on_char '\n' text)

let split c tok =
  let _, pieces =
    List.fold_left
      (fun (col, acc) text -> (col + String.length text + 1, { tok with text; col } :: acc))
      (tok.col, [])
      (String.split_on_char c tok.text)
  in
  List.rev pieces

let cut c tok =
  match String.index_opt tok.text c with
  | None -> None
  | Some i ->
    let n = String.length tok.text in
    Some
      ( { tok with text = String.sub tok.text 0 i },
        { tok with text = String.sub tok.text (i + 1) (n - i - 1); col = tok.col + i + 1 } )

(* The characters [String.trim] strips. *)
let is_space = function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false

let trim tok =
  let n = String.length tok.text in
  let rec first i = if i < n && is_space tok.text.[i] then first (i + 1) else i in
  { tok with text = String.trim tok.text; col = tok.col + first 0 }

let words ?(sep = ' ') tok =
  List.filter (fun w -> w.text <> "") (List.map trim (split sep tok))

let at tok fmt = fail ~line:tok.line ~col:tok.col fmt

let read parse ?(valid = fun _ -> true) msg tok =
  match parse tok.text with
  | Some v when valid v -> v
  | Some _ | None -> at tok "%s" (msg tok.text)

let int ?valid msg tok = read int_of_string_opt ?valid msg tok
let float ?valid msg tok = read float_of_string_opt ?valid msg tok
