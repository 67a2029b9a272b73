type kind =
  | Compile
  | Infer
  | Verify
  | Ping

let kind_to_string = function
  | Compile -> "compile"
  | Infer -> "infer"
  | Verify -> "verify"
  | Ping -> "ping"

let kind_of_string = function
  | "compile" -> Some Compile
  | "infer" -> Some Infer
  | "verify" -> Some Verify
  | "ping" -> Some Ping
  | _ -> None

type request = {
  id : string;
  kind : kind;
  model : string;
  chip : string;
  batch : int;
  scheme : string;
  objective : string;
  deadline_s : float option;
  seed : int;
  quick : bool;
  payload : string list;
}

let default_request =
  {
    id = "-";
    kind = Ping;
    model = "lenet5";
    chip = "S";
    batch = 1;
    scheme = "compass";
    objective = "latency";
    deadline_s = None;
    seed = 0;
    quick = true;
    payload = [];
  }

(* An id is echoed into the response header, so it must stay a single
   token: no whitespace, bounded length. *)
let valid_id id =
  let n = String.length id in
  n >= 1 && n <= 64
  && String.for_all
       (fun c ->
         match c with
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' | '_' | '.' | ':' -> true
         | _ -> false)
       id

module Located = Compass_util.Located

(* Block lines as tokens numbered from 1.  A block's grammar raises
   [Located.Error] internally; [parse_block] turns that into the result,
   rendered without a file ("line N: msg"), so parsing never raises. *)
let parse_block parse lines =
  match parse (List.mapi (fun i text -> { Located.text; line = i + 1; col = 1 }) lines) with
  | v -> Result.Ok v
  | exception Located.Error e -> Result.Error (Located.render e)

(* "key value", the value untrimmed; a line without a space is all key. *)
let key_value (l : Located.token) =
  match Located.cut ' ' l with
  | Some (k, v) -> (k.text, v)
  | None -> (l.text, { l with text = "" })

let texts = List.map (fun (l : Located.token) -> l.text)

let parse_request =
  parse_block @@ function
  | [] -> Located.fail "empty request block"
  | (header : Located.token) :: rest -> (
    match String.split_on_char ' ' header.text with
    | [ "request"; id; kind ] ->
      if not (valid_id id) then
        Located.fail ~line:1 "request id must be 1-64 characters of [A-Za-z0-9._:-]";
      let kind =
        match kind_of_string kind with
        | Some kind -> kind
        | None ->
          Located.fail ~line:1 "unknown request kind %s (try compile, infer, verify, ping)"
            kind
      in
      let rec fields r = function
        | [] -> r
        | l :: tl -> (
          let key, v = key_value l in
          let int name =
            Located.int (Printf.sprintf "%s: expected an integer, got %S" name) v
          in
          match key with
          | "model" when v.text <> "" -> fields { r with model = v.text } tl
          | "chip" when v.text <> "" -> fields { r with chip = v.text } tl
          | "scheme" when v.text <> "" -> fields { r with scheme = v.text } tl
          | "objective" when v.text <> "" -> fields { r with objective = v.text } tl
          | "batch" -> fields { r with batch = int "batch" } tl
          | "seed" -> fields { r with seed = int "seed" } tl
          | "deadline" ->
            let s =
              Located.float ~valid:(fun s -> s >= 0. && not (Float.is_nan s))
                (Printf.sprintf "deadline: expected seconds >= 0, got %S")
                v
            in
            fields { r with deadline_s = Some s } tl
          | "quick" -> (
            match bool_of_string_opt v.text with
            | Some b -> fields { r with quick = b } tl
            | None -> Located.at v "quick: expected true/false, got %S" v.text)
          | "payload" -> (
            match int_of_string_opt v.text with
            | Some count when count >= 0 && count = List.length tl ->
              { r with payload = texts tl }
            | Some count ->
              Located.at v "payload: declared %d line(s), block carries %d" count
                (List.length tl)
            | None -> Located.at v "payload: expected a count, got %S" v.text)
          | _ -> Located.at l "unknown request field %S" key)
      in
      fields { default_request with id; kind } rest
    | "request" :: _ -> Located.fail ~line:1 "expected: request <id> <kind>"
    | _ -> Located.fail ~line:1 "expected a request header, got %S" header.text)

let request_to_lines r =
  let base =
    [
      Printf.sprintf "request %s %s" r.id (kind_to_string r.kind);
      "model " ^ r.model;
      "chip " ^ r.chip;
      Printf.sprintf "batch %d" r.batch;
      "scheme " ^ r.scheme;
      "objective " ^ r.objective;
      Printf.sprintf "seed %d" r.seed;
      Printf.sprintf "quick %b" r.quick;
    ]
  in
  let deadline =
    match r.deadline_s with
    | None -> []
    | Some s -> [ "deadline " ^ Compass_util.Artifact.float_token s ]
  in
  let payload =
    match r.payload with
    | [] -> []
    | lines -> Printf.sprintf "payload %d" (List.length lines) :: lines
  in
  base @ deadline @ payload @ [ "end" ]

type status =
  | Ok
  | Degraded
  | Rejected
  | Timeout
  | Error

let status_to_string = function
  | Ok -> "ok"
  | Degraded -> "degraded"
  | Rejected -> "rejected"
  | Timeout -> "timeout"
  | Error -> "error"

let status_of_string = function
  | "ok" -> Some Ok
  | "degraded" -> Some Degraded
  | "rejected" -> Some Rejected
  | "timeout" -> Some Timeout
  | "error" -> Some Error
  | _ -> None

type response = {
  r_id : string;
  status : status;
  elapsed_s : float;
  note : string option;
  body : string list;
}

(* A note is a single line of the envelope: collapse any embedded
   newlines from exception messages rather than corrupting the frame. *)
let one_line s = String.map (fun c -> if c = '\n' || c = '\r' then ' ' else c) s

let response_to_string r =
  let b = Buffer.create 256 in
  Buffer.add_string b
    (Printf.sprintf "response %s %s\n" r.r_id (status_to_string r.status));
  Buffer.add_string b
    ("elapsed " ^ Compass_util.Artifact.float_token r.elapsed_s ^ "\n");
  (match r.note with
  | Some note -> Buffer.add_string b ("note " ^ one_line note ^ "\n")
  | None -> ());
  (match r.body with
  | [] -> ()
  | body ->
    Buffer.add_string b (Printf.sprintf "payload %d\n" (List.length body));
    List.iter
      (fun line ->
        Buffer.add_string b line;
        Buffer.add_char b '\n')
      body);
  Buffer.add_string b "end\n";
  Buffer.contents b

let parse_response text =
  let lines =
    String.split_on_char '\n' text
    |> List.map (fun l ->
           if String.ends_with ~suffix:"\r" l then String.sub l 0 (String.length l - 1) else l)
  in
  let lines =
    (* Drop a trailing empty line from the final newline, and the [end]. *)
    let rec strip = function
      | [ "" ] | [ "end" ] | [ "end"; "" ] -> []
      | x :: tl -> x :: strip tl
      | [] -> []
    in
    strip lines
  in
  lines
  |> parse_block @@ function
     | [] -> Located.fail "empty response"
     | (header : Located.token) :: rest -> (
       match String.split_on_char ' ' header.text with
       | [ "response"; id; st ] ->
         let status =
           match status_of_string st with
           | Some status -> status
           | None -> Located.fail ~line:1 "unknown status %S" st
         in
         let rec fields r = function
           | [] -> r
           | l :: tl -> (
             let key, v = key_value l in
             match key with
             | "elapsed" ->
               let elapsed_s = Located.float (Printf.sprintf "elapsed: bad float %S") v in
               fields { r with elapsed_s } tl
             | "note" -> fields { r with note = Some v.text } tl
             | "payload" -> (
               match int_of_string_opt v.text with
               | Some count when count = List.length tl -> { r with body = texts tl }
               | Some count ->
                 Located.at v "payload: declared %d line(s), block carries %d" count
                   (List.length tl)
               | None -> Located.at v "payload: expected a count, got %S" v.text)
             | _ -> Located.at l "unknown response field %S" key)
         in
         fields { r_id = id; status; elapsed_s = 0.; note = None; body = [] } rest
       | _ -> Located.fail ~line:1 "expected a response header, got %S" header.text)

module Framer = struct
  type t = {
    mutable acc : string list;  (* reversed lines of the current block *)
    mutable raw_left : int;  (* payload lines still owed to the block *)
    mutable in_block : bool;
  }

  let create () = { acc = []; raw_left = 0; in_block = false }
  let partial t = t.in_block

  let finish t =
    let block = List.rev t.acc in
    t.acc <- [];
    t.raw_left <- 0;
    t.in_block <- false;
    Some block

  let feed t line =
    if t.raw_left > 0 then begin
      t.acc <- line :: t.acc;
      t.raw_left <- t.raw_left - 1;
      None
    end
    else if (not t.in_block) && String.trim line = "" then None
    else if line = "end" then
      if t.in_block then finish t
      else None (* stray [end] between blocks: ignore *)
    else begin
      t.in_block <- true;
      t.acc <- line :: t.acc;
      (match key_value { Located.text = line; line = 0; col = 1 } with
      | "payload", v -> (
        match int_of_string_opt v.text with
        | Some n when n > 0 -> t.raw_left <- n
        | Some _ | None -> ())
      | _ -> ());
      None
    end
end
