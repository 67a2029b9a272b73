(* Tests for the shared located-diagnostics layer (Compass_util.Located)
   and one round-trip-and-mutate property over every text grammar that
   reads it: model descriptions, archived plans, GA checkpoints, fault
   specs and serve requests.  Each printed input must parse back to the
   same bytes; one random mutation of it must then either parse or fail
   with a [Located.Error] that points inside the mutated text — never
   with any other exception. *)

open Compass_core
module Located = Compass_util.Located

let error ?file ?(line = 0) ?(col = 0) msg = { Located.file; line; col; msg }

let test_render () =
  let check expected e = Alcotest.(check string) expected expected (Located.render e) in
  check "m.model:3:20: bad" (error ~file:"m.model" ~line:3 ~col:20 "bad");
  check "m.model:3: bad" (error ~file:"m.model" ~line:3 "bad");
  check "m.model: bad" (error ~file:"m.model" "bad");
  (* An unnamed buffer reads "line N" with or without a column. *)
  check "line 7: bad" (error ~line:7 ~col:4 "bad");
  check "line 7: bad" (error ~line:7 "bad");
  check "bad" (error "bad")

let raises f =
  match f () with
  | _ -> Alcotest.fail "expected Located.Error"
  | exception Located.Error e -> e

let test_in_file_and_shift () =
  let e =
    raises (fun () -> Located.in_file "a" (fun () -> Located.fail ~line:2 ~col:3 "x"))
  in
  Alcotest.(check string) "stamped" "a:2:3: x" (Located.render e);
  let e =
    raises (fun () ->
        Located.in_file "outer" (fun () ->
            Located.in_file "inner" (fun () -> Located.fail ~line:1 "x")))
  in
  Alcotest.(check string) "innermost source wins" "inner:1: x" (Located.render e);
  (* A nested text starting at host line 8, column 13. *)
  let shifted line col =
    let e =
      raises (fun () -> Located.shift ~line:8 ~col:13 (fun () -> Located.fail ~line ~col "x"))
    in
    (e.line, e.col)
  in
  let check = Alcotest.(check (pair int int)) in
  check "first line moves both" (8, 17) (shifted 1 5);
  check "later lines keep their column" (10, 5) (shifted 3 5);
  check "whole-input lands on the host line" (8, 0) (shifted 0 0);
  check "no column stays none" (8, 0) (shifted 1 0)

let test_lexing () =
  let tok = { Located.text = "  a bb,  c "; line = 4; col = 3 } in
  let show (ts : Located.token list) =
    List.map (fun (t : Located.token) -> Printf.sprintf "%s@%d:%d" t.text t.line t.col) ts
  in
  let check = Alcotest.(check (list string)) in
  check "words" [ "a@4:5"; "bb,@4:7"; "c@4:12" ] (show (Located.words tok));
  check "words by separator" [ "a bb@4:5"; "c@4:12" ] (show (Located.words ~sep:',' tok));
  check "split keeps empties" [ "  a bb@4:3"; "  c @4:10" ] (show (Located.split ',' tok));
  check "trim" [ "a bb,  c@4:5" ] (show [ Located.trim tok ]);
  (match Located.cut ' ' { tok with text = "key a value" } with
  | Some (k, v) -> check "cut" [ "key@4:3"; "a value@4:7" ] (show [ k; v ])
  | None -> Alcotest.fail "no cut");
  Alcotest.(check bool) "no separator" true (Located.cut '=' tok = None);
  check "lines" [ "a@1:1"; "@2:1"; "b@3:1" ] (show (Located.lines "a\n\nb"));
  let bad = Printf.sprintf "bad %S" in
  Alcotest.(check int) "int" 42 (Located.int bad { tok with text = "42" });
  let e =
    raises (fun () -> Located.int ~valid:(fun n -> n > 0) bad { tok with text = "-1" })
  in
  Alcotest.(check string) "int fails at its column" "line 4: bad \"-1\"" (Located.render e);
  Alcotest.(check int) "column" 3 e.col;
  let e = raises (fun () -> Located.float bad { tok with text = "x" }) in
  Alcotest.(check string) "float" "bad \"x\"" e.msg

(* {1 Round trip and mutate} *)

type grammar = {
  name : string;
  samples : string array;  (* printed inputs *)
  reprint : string -> string;  (* parse, then print again *)
  parse : string -> unit;  (* raises Located.Error on malformed input *)
}

let plan_samples () =
  let open Compass_arch in
  let chip = Config.chip_s in
  let compile ?faults model scheme =
    Plan_text.to_string
      (Compiler.compile ?faults ~ga_params:Ga.quick_params ~model ~chip ~batch:4 scheme)
  in
  let lenet = Compass_nn.Models.by_name "lenet5" in
  let faults =
    Fault.of_string "dead:1;transient:2" ~seed:0 ~cores:chip.Config.cores
      ~macros_per_core:chip.Config.core.Config.macros_per_core
  in
  let custom =
    Compass_nn.Model_text.parse
      "model custom\ninput in 3x8x8\nconv c from in out=4 kernel=3\nrelu r from c\n\
       gap g from r\nlinear fc from g out=2\n"
  in
  [|
    compile lenet Compiler.Greedy;
    compile ~faults lenet Compiler.Greedy;
    compile custom Compiler.Optimal;
  |]

let checkpoint_samples () =
  let model = Compass_nn.Models.by_name "lenet5" in
  let units = Unit_gen.generate model Compass_arch.Config.chip_s in
  let texts = ref [] in
  ignore
    (Ga.optimize
       ~params:{ Ga.quick_params with Ga.generations = 3 }
       ~on_checkpoint:(fun ck -> texts := Plan_text.checkpoint_to_string ck :: !texts)
       (Dataflow.context units) (Validity.build units) ~batch:4);
  Array.of_list !texts

let fault_samples =
  let open Compass_arch.Fault in
  List.map
    (fun s -> spec_to_string (parse s))
    [
      "dead:1,3;degraded:2=4";
      "random:dead=2,degraded=1;endurance:1e6";
      "transient:3;flip:2;drift:0.125";
      "none";
      "degraded:0=1,5=7;flip:1";
    ]
  |> Array.of_list

(* A request block's text: its lines without the framing [end]. *)
let request_text r =
  match List.rev (Compass_serve.Protocol.request_to_lines r) with
  | "end" :: rev -> String.concat "\n" (List.rev rev)
  | _ -> Alcotest.fail "request block lacks its end line"

let request_samples =
  let open Compass_serve.Protocol in
  Array.map request_text
    [|
      default_request;
      { default_request with id = "c-1"; kind = Compile; model = "resnet18"; batch = 16;
        deadline_s = Some 2.5; quick = false };
      { default_request with id = "v.2"; kind = Verify;
        payload = [ "compass-plan 1"; "end"; "" ] };
      { default_request with id = "i:3"; kind = Infer; seed = 7; deadline_s = Some 0. };
    |]

let parse_request text =
  match Compass_serve.Protocol.parse_request (String.split_on_char '\n' text) with
  | Ok r -> r
  | Error msg -> (
    (* Results carry the rendering of a Located.Error; re-raise it so
       the property checks its line like every other grammar's. *)
    match Scanf.sscanf_opt msg "line %d: %s@\n" (fun line rest -> (line, rest)) with
    | Some (line, rest) -> Located.fail ~line "%s" rest
    | None -> Located.fail "%s" msg)

let grammars () =
  let zoo = Array.of_list (List.map Compass_nn.Models.by_name Compass_nn.Models.all_names) in
  [
    {
      name = "model";
      samples = Array.map Compass_nn.Model_text.to_string zoo;
      reprint = (fun t -> Compass_nn.Model_text.to_string (Compass_nn.Model_text.parse t));
      parse = (fun t -> ignore (Compass_nn.Model_text.parse t));
    };
    {
      name = "plan";
      samples = plan_samples ();
      reprint = (fun t -> Plan_text.to_string (Plan_text.of_string t));
      parse = (fun t -> ignore (Plan_text.of_string t));
    };
    {
      name = "checkpoint";
      samples = checkpoint_samples ();
      reprint =
        (fun t -> Plan_text.checkpoint_to_string (Plan_text.checkpoint_of_string t));
      parse = (fun t -> ignore (Plan_text.checkpoint_of_string t));
    };
    {
      name = "fault spec";
      samples = fault_samples;
      reprint = (fun t -> Compass_arch.Fault.(spec_to_string (parse t)));
      parse = (fun t -> ignore (Compass_arch.Fault.parse t));
    };
    {
      name = "serve request";
      samples = request_samples;
      reprint = (fun t -> request_text (parse_request t));
      parse = (fun t -> ignore (parse_request t));
    };
  ]

let garbage =
  [| ""; "banana"; "-1"; "0"; "1000000000"; "="; ":"; ","; "x"; "#"; "from"; "nan";
     "1e308"; "a=b"; "end" |]

type mutation =
  | Drop of int
  | Duplicate of int
  | Truncate of int * int  (* line, kept prefix length *)
  | Replace of int * int * string  (* line, word index, garbage *)

let show_mutation = function
  | Drop i -> Printf.sprintf "drop line %d" (i + 1)
  | Duplicate i -> Printf.sprintf "duplicate line %d" (i + 1)
  | Truncate (i, n) -> Printf.sprintf "truncate line %d to %d chars" (i + 1) n
  | Replace (i, w, g) -> Printf.sprintf "replace word %d of line %d by %S" w (i + 1) g

let mutate lines = function
  | Drop i -> List.filteri (fun j _ -> j <> i) lines
  | Duplicate i ->
    List.concat (List.mapi (fun j l -> if j = i then [ l; l ] else [ l ]) lines)
  | Truncate (i, n) ->
    List.mapi (fun j l -> if j = i then String.sub l 0 (min n (String.length l)) else l) lines
  | Replace (i, w, g) ->
    List.mapi
      (fun j l ->
        if j <> i then l
        else
          let words = String.split_on_char ' ' l in
          let w = w mod List.length words in
          String.concat " " (List.mapi (fun k x -> if k = w then g else x) words))
      lines

let gen_mutation nlines =
  let open QCheck.Gen in
  let line = int_bound (nlines - 1) in
  oneof
    [
      map (fun i -> Drop i) line;
      map (fun i -> Duplicate i) line;
      map2 (fun i n -> Truncate (i, n)) line (int_bound 40);
      map3 (fun i w g -> Replace (i, w, garbage.(g))) line (int_bound 8)
        (int_bound (Array.length garbage - 1));
    ]

let prop_roundtrip_and_mutate g =
  let gen =
    QCheck.Gen.(
      int_bound (Array.length g.samples - 1) >>= fun s ->
      let nlines = List.length (String.split_on_char '\n' g.samples.(s)) in
      map (fun m -> (s, m)) (gen_mutation nlines))
  in
  QCheck.Test.make ~count:150
    ~name:(g.name ^ " round-trips, and mutants parse or fail located")
    (QCheck.make
       ~print:(fun (s, m) -> Printf.sprintf "sample %d, %s" s (show_mutation m))
       gen)
    (fun (s, m) ->
      let text = g.samples.(s) in
      if g.reprint text <> text then
        QCheck.Test.fail_reportf "sample %d does not round-trip" s;
      let lines = mutate (String.split_on_char '\n' text) m in
      match g.parse (String.concat "\n" lines) with
      | () -> true
      | exception Located.Error e ->
        let n = List.length lines in
        let width =
          if e.line >= 1 && e.line <= n then String.length (List.nth lines (e.line - 1))
          else 0
        in
        if e.line < 0 || e.line > n || e.col < 0 || e.col > width + 1
           || (e.line = 0 && e.col <> 0)
        then QCheck.Test.fail_reportf "%s: out of bounds (%d lines)" (Located.render e) n
        else true
      | exception ex -> QCheck.Test.fail_reportf "raised %s" (Printexc.to_string ex))

let () =
  Alcotest.run "located"
    [
      ( "located",
        [
          Alcotest.test_case "render" `Quick test_render;
          Alcotest.test_case "in_file and shift" `Quick test_in_file_and_shift;
          Alcotest.test_case "lexing" `Quick test_lexing;
        ] );
      ( "grammars",
        List.map
          (fun g -> QCheck_alcotest.to_alcotest (prop_roundtrip_and_mutate g))
          (grammars ()) );
    ]
