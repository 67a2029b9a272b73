(* Just enough JSON for BENCHMARK.json and the result files: no escapes
   beyond the ones the benchmark's own strings can contain. *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of t list
  | Obj of (string * t) list

exception Error of string

let number x =
  if Float.is_integer x && Float.abs x < 1e15 then Printf.sprintf "%.0f" x
  else Printf.sprintf "%.17g" x

let escape s =
  let b = Buffer.create (String.length s + 2) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
      | c -> Buffer.add_char b c)
    s;
  "\"" ^ Buffer.contents b ^ "\""

let rec to_string = function
  | Null -> "null"
  | Bool b -> string_of_bool b
  | Num x -> if Float.is_finite x then number x else "null"
  | Str s -> escape s
  | Arr xs -> "[" ^ String.concat ", " (List.map to_string xs) ^ "]"
  | Obj kvs ->
    "{"
    ^ String.concat ", " (List.map (fun (k, v) -> escape k ^ ": " ^ to_string v) kvs)
    ^ "}"

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let fail msg = raise (Error (Printf.sprintf "offset %d: %s" !pos msg)) in
  let rec ws () =
    if !pos < n && String.contains " \t\r\n" s.[!pos] then begin
      incr pos;
      ws ()
    end
  in
  let expect c =
    ws ();
    if !pos < n && s.[!pos] = c then incr pos else fail (Printf.sprintf "expected '%c'" c)
  in
  let literal word v =
    if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
    then begin
      pos := !pos + String.length word;
      v
    end
    else fail "bad literal"
  in
  let string () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      if !pos >= n then fail "unterminated string";
      let c = s.[!pos] in
      incr pos;
      match c with
      | '"' -> Buffer.contents b
      | '\\' ->
        if !pos >= n then fail "bad escape";
        let e = s.[!pos] in
        incr pos;
        (match e with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'u' ->
          if !pos + 4 > n then fail "bad \\u escape";
          let code = int_of_string ("0x" ^ String.sub s !pos 4) in
          pos := !pos + 4;
          if code < 0x80 then Buffer.add_char b (Char.chr code)
          else Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | c ->
        Buffer.add_char b c;
        go ()
    in
    go ()
  in
  let rec value () =
    ws ();
    if !pos >= n then fail "unexpected end";
    match s.[!pos] with
    | '{' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = '}' then begin
        incr pos;
        Obj []
      end
      else
        let rec members acc =
          let k = string () in
          expect ':';
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            members ((k, v) :: acc)
          end
          else begin
            expect '}';
            Obj (List.rev ((k, v) :: acc))
          end
        in
        members []
    | '[' ->
      incr pos;
      ws ();
      if !pos < n && s.[!pos] = ']' then begin
        incr pos;
        Arr []
      end
      else
        let rec elements acc =
          let v = value () in
          ws ();
          if !pos < n && s.[!pos] = ',' then begin
            incr pos;
            elements (v :: acc)
          end
          else begin
            expect ']';
            Arr (List.rev (v :: acc))
          end
        in
        elements []
    | '"' -> Str (string ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while !pos < n && String.contains "+-0123456789.eE" s.[!pos] do
        incr pos
      done;
      (match float_of_string_opt (String.sub s start (!pos - start)) with
      | Some x when !pos > start -> Num x
      | _ -> fail "bad value")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing characters";
  v

let member key = function
  | Obj kvs -> ( match List.assoc_opt key kvs with Some v -> v | None -> Null)
  | _ -> Null

let to_list = function Arr xs -> xs | _ -> []
let to_str = function Str s -> s | _ -> raise (Error "expected a string")
let to_num = function Num x -> x | _ -> raise (Error "expected a number")
