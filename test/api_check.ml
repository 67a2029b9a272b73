(* Dead-API check: every [val] exported by a [lib/**/*.mli] must have a
   qualified reference ([M.name], [Sub.name] for a nested [module Sub : sig])
   from production code -- an [.ml] under lib/, bin/, bench/ or examples/
   other than the defining module's own file -- or an entry in the
   allow-list with a reason.

   Usage: api_check.exe ROOT ALLOW_LIST

   Interfaces are read with the compiler's parser; implementations are
   read with its lexer, so comments and string literals never count as
   calls. A module alias [module X = A.B.M] makes [X.name] count for
   [M.name]. Two modules of the same name in different libraries share
   their references. Exit status 1 names every dead export, every
   allow-list entry that no longer names an export, every entry whose
   name has since gained a caller, and an allow-list longer than
   [max_allowed] (15 entries, its current length). *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let rec walk dir =
  Sys.readdir dir |> Array.to_list |> List.sort compare
  |> List.concat_map (fun entry ->
         let path = Filename.concat dir entry in
         if entry.[0] = '.' || entry.[0] = '_' then []
         else if Sys.is_directory path then walk path
         else [ path ])

(* Paths as printed: relative to the repository root. *)
let strip_root root path =
  let prefix = root ^ Filename.dir_sep in
  if String.starts_with ~prefix path then
    String.sub path (String.length prefix) (String.length path - String.length prefix)
  else path

let module_of_file path =
  String.capitalize_ascii Filename.(remove_extension (basename path))

(* An export: [owner] is the compilation unit, [modname] the innermost
   module holding the [val] (equal to [owner] unless nested). *)
type export = { owner : string; modname : string; name : string; where : string }

let exports_of_mli ~root path =
  let lexbuf = Lexing.from_string (read_file path) in
  Location.init lexbuf path;
  let shown = strip_root root path in
  let owner = module_of_file path in
  let rec sig_items modname items =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
          let line = vd.pval_loc.loc_start.pos_lnum in
          let where = Printf.sprintf "%s:%d" shown line in
          [ { owner; modname; name = vd.pval_name.txt; where } ]
        | Psig_module { pmd_name = { txt = Some sub; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature items -> sig_items sub items
          | _ -> [])
        | _ -> [])
      items
  in
  sig_items owner (Parse.interface lexbuf)

let tokens_of_ml path =
  let lexbuf = Lexing.from_string (read_file path) in
  Location.init lexbuf path;
  Lexer.init ();
  let rec go acc =
    match Lexer.token lexbuf with
    | Parser.EOF -> List.rev acc
    | tok -> go (tok :: acc)
  in
  go []

(* Every [(module, name)] pair referenced as [M.name] or [M.( name )] in
   one implementation, with module aliases resolved. *)
let references path =
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let refs = ref [] in
  let rec go = function
    | Parser.MODULE :: UIDENT alias :: EQUAL :: UIDENT target :: rest ->
      let rec last target = function
        | Parser.DOT :: UIDENT m :: rest -> last m rest
        | rest -> (target, rest)
      in
      let target, rest = last target rest in
      Hashtbl.replace aliases alias target;
      go rest
    | UIDENT m :: DOT :: LIDENT name :: rest ->
      refs := (resolve m, name) :: !refs;
      go (LIDENT name :: rest)
    | UIDENT m :: DOT :: LPAREN
      :: (INFIXOP0 op | INFIXOP1 op | INFIXOP2 op | INFIXOP3 op | INFIXOP4 op)
      :: rest ->
      refs := (resolve m, op) :: !refs;
      go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go (tokens_of_ml path);
  !refs

(* The allow-list: one [Module.name reason...] per line, [#] comments. *)
let read_allow path =
  read_file path |> String.split_on_char '\n'
  |> List.mapi (fun i line -> (i + 1, String.trim line))
  |> List.filter_map (fun (lnum, line) ->
         if line = "" || line.[0] = '#' then None
         else
           match String.index_opt line ' ' with
           | Some i when String.trim (String.sub line i (String.length line - i)) <> "" ->
             Some (String.sub line 0 i, lnum)
           | _ ->
             Printf.eprintf "%s:%d: allow-list entry %S has no reason\n" path lnum line;
             exit 1)

(* The allow-list is an exception list, not a second API: past this size
   the fix is a smaller interface.  Kept at the list's current length, so
   a new entry has to retire an old one. *)
let max_allowed = 15

let () =
  let root, allow_path =
    match Sys.argv with
    | [| _; root; allow |] -> (root, allow)
    | _ ->
      prerr_endline "usage: api_check.exe ROOT ALLOW_LIST";
      exit 2
  in
  let lib = walk (Filename.concat root "lib") in
  let exports =
    List.filter (fun p -> Filename.check_suffix p ".mli") lib
    |> List.concat_map (exports_of_mli ~root)
  in
  let callers = Hashtbl.create 4096 in
  [ "lib"; "bin"; "bench"; "examples" ]
  |> List.concat_map (fun d -> walk (Filename.concat root d))
  |> List.filter (fun p -> Filename.check_suffix p ".ml")
  |> List.iter (fun path ->
         let unit = module_of_file path in
         List.iter (fun key -> Hashtbl.add callers key unit) (references path));
  let live e =
    Hashtbl.find_all callers (e.modname, e.name) |> List.exists (fun unit -> unit <> e.owner)
  in
  let key e = e.modname ^ "." ^ e.name in
  let allow = read_allow allow_path in
  let failures = ref 0 in
  let fail fmt =
    incr failures;
    Printf.eprintf (fmt ^^ "\n")
  in
  if List.length allow > max_allowed then
    fail "%s: %d entries, more than %d: shrink the API instead" allow_path
      (List.length allow) max_allowed;
  List.iter
    (fun e ->
      let allowed = List.mem_assoc (key e) allow in
      match (live e, allowed) with
      | false, false ->
        fail
          "%s: %s has no caller outside test/ and its own module: delete it, unexport \
           it, or allow-list it in %s with a reason"
          e.where (key e) allow_path
      | true, true ->
        fail "%s: %s is allow-listed but now has a caller: remove its entry" e.where
          (key e)
      | _ -> ())
    exports;
  List.iter
    (fun (k, lnum) ->
      if not (List.exists (fun e -> key e = k) exports) then
        fail "%s:%d: allow-list entry %s names no exported val" allow_path lnum k)
    allow;
  Printf.printf "api_check: %d exported vals, %d allow-listed, %d problem(s)\n"
    (List.length exports) (List.length allow) !failures;
  if !failures > 0 then exit 1
