(* Dead-API check over the interfaces [lib/**/*.mli].  Three rules, each
   conservative: a name production might use is never reported.

   - Every exported [val] must have a qualified reference ([M.name],
     [Sub.name] for a nested [module Sub : sig]) from production code --
     an [.ml] under lib/, bin/, bench/ or examples/ other than the
     defining module's own file.
   - Every optional label [?l] of a live [val] must be passed, as [~l],
     [~l:], [?l] or [?l:], in some production [.ml] other than the
     owner's.
   - Every variant constructor must be built -- used as an expression,
     not only matched on -- by some production [.ml], the owner's
     included.

   A finding may instead be kept by an entry in the allow-list, keyed
   [Module.name] for a val (which covers its labels too),
   [Module.name?label] for one label, and [Module.Constructor] for a
   constructor, each with a reason.

   Usage: api_check.exe ROOT ALLOW_LIST

   Interfaces and constructor uses are read with the compiler's parser;
   val and label references are read with its lexer, so comments and
   string literals never count as calls.  A module alias
   [module X = A.B.M] makes [X.name] and [X.C] count for [M].  Two modules
   of the same name in different libraries share their references, and a
   constructor built unqualified counts for every constructor of that
   name.  Exit status 1 names every finding, every allow-list entry that
   no longer names an export, every entry whose name has since gained a
   caller, and an allow-list longer than [max_allowed] (16 entries, its
   current length). *)

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

let lexbuf_of path =
  let lexbuf = Lexing.from_string (read_file path) in
  Location.init lexbuf path;
  lexbuf

(* An export: [owner] is the compilation unit, [modname] the innermost
   module holding it (equal to [owner] unless nested). *)
type kind =
  | Val
  | Label of string  (** An optional label of the named val. *)
  | Ctor

type export = {
  owner : string;
  modname : string;
  name : string;
  kind : kind;
  where : string;
}

let key e =
  match e.kind with
  | Val | Ctor -> e.modname ^ "." ^ e.name
  | Label v -> Printf.sprintf "%s.%s?%s" e.modname v e.name

let rec optional_labels (t : Parsetree.core_type) =
  match t.ptyp_desc with
  | Ptyp_arrow (Optional l, _, rest) -> l :: optional_labels rest
  | Ptyp_arrow (_, _, rest) | Ptyp_poly (_, rest) -> optional_labels rest
  | _ -> []

let exports_of_mli ~root path =
  let shown = strip_root root path in
  let owner = module_of_file path in
  let at (loc : Location.t) = Printf.sprintf "%s:%d" shown loc.loc_start.pos_lnum in
  let rec sig_items modname items =
    List.concat_map
      (fun (item : Parsetree.signature_item) ->
        match item.psig_desc with
        | Psig_value vd ->
          let v = vd.pval_name.txt in
          let where = at vd.pval_loc in
          { owner; modname; name = v; kind = Val; where }
          :: List.map
               (fun l -> { owner; modname; name = l; kind = Label v; where })
               (optional_labels vd.pval_type)
        | Psig_type (_, decls) ->
          List.concat_map
            (fun (d : Parsetree.type_declaration) ->
              match d.ptype_kind with
              | Ptype_variant ctors ->
                List.map
                  (fun (c : Parsetree.constructor_declaration) ->
                    { owner; modname; name = c.pcd_name.txt; kind = Ctor; where = at c.pcd_loc })
                  ctors
              | _ -> [])
            decls
        | Psig_module { pmd_name = { txt = Some sub; _ }; pmd_type; _ } -> (
          match pmd_type.pmty_desc with
          | Pmty_signature items -> sig_items sub items
          | _ -> [])
        | _ -> [])
      items
  in
  sig_items owner (Parse.interface (lexbuf_of path))

let tokens_of_ml path =
  let lexbuf = lexbuf_of path in
  Lexer.init ();
  let rec go acc =
    match Lexer.token lexbuf with
    | Parser.EOF -> List.rev acc
    | tok -> go (tok :: acc)
  in
  go []

(* What one implementation uses, with module aliases resolved:
   [(module, name)] pairs referenced as [M.name] or [M.( op )], and the
   labels it passes. *)
let references path =
  let aliases = Hashtbl.create 8 in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let refs = ref [] and labels = ref [] in
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
    | (LABEL l | OPTLABEL l) :: rest | (TILDE | QUESTION) :: LIDENT l :: rest ->
      labels := l :: !labels;
      go rest
    | _ :: rest -> go rest
    | [] -> ()
  in
  go (tokens_of_ml path);
  (!refs, !labels)

(* Every constructor one implementation builds, as [(module, name)], with
   [""] for an unqualified one.  Patterns are not expressions, so a
   constructor that is only matched on is not collected. *)
let constructions path =
  let aliases = Hashtbl.create 8 and built = ref [] in
  let resolve m = Option.value (Hashtbl.find_opt aliases m) ~default:m in
  let default = Ast_iterator.default_iterator in
  let module_binding it (mb : Parsetree.module_binding) =
    (match (mb.pmb_name.txt, mb.pmb_expr.pmod_desc) with
    | Some alias, Pmod_ident { txt; _ } ->
      Hashtbl.replace aliases alias (Longident.last txt)
    | _ -> ());
    default.module_binding it mb
  in
  let expr it (e : Parsetree.expression) =
    (match e.pexp_desc with
    | Pexp_construct ({ txt = Lident c; _ }, _) -> built := ("", c) :: !built
    | Pexp_construct ({ txt = Ldot (m, c); _ }, _) ->
      built := (resolve (Longident.last m), c) :: !built
    | _ -> ());
    default.expr it e
  in
  let it = { default with module_binding; expr } in
  it.structure it (Parse.implementation (lexbuf_of path));
  !built

(* The allow-list: one [key reason...] per line, [#] comments. *)
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
let max_allowed = 16

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
  let callers = Hashtbl.create 4096
  and passers = Hashtbl.create 1024
  and builders = Hashtbl.create 1024 in
  [ "lib"; "bin"; "bench"; "examples" ]
  |> List.map (Filename.concat root)
  |> List.filter Sys.file_exists |> List.concat_map walk
  |> List.filter (fun p -> Filename.check_suffix p ".ml")
  |> List.iter (fun path ->
         let unit = module_of_file path in
         let refs, labels = references path in
         List.iter (fun key -> Hashtbl.add callers key unit) refs;
         List.iter (fun l -> Hashtbl.add passers l unit) labels;
         List.iter (fun key -> Hashtbl.replace builders key ()) (constructions path));
  let outside tbl k owner = Hashtbl.find_all tbl k |> List.exists (fun u -> u <> owner) in
  let live e =
    match e.kind with
    | Val -> outside callers (e.modname, e.name) e.owner
    | Label _ -> outside passers e.name e.owner
    | Ctor -> Hashtbl.mem builders (e.modname, e.name) || Hashtbl.mem builders ("", e.name)
  in
  let allow = read_allow allow_path in
  let allowed e = List.mem_assoc (key e) allow in
  (* A label is moot while its val is dead, and covered while its val is
     allow-listed. *)
  let checked e =
    match e.kind with
    | Label v ->
      let f =
        List.find
          (fun x -> x.kind = Val && x.owner = e.owner && x.modname = e.modname && x.name = v)
          exports
      in
      live f && not (allowed f)
    | Val | Ctor -> true
  in
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
      match (live e, allowed e) with
      | false, false when checked e ->
        let unused =
          match e.kind with
          | Val -> "has no caller outside test/ and its own module"
          | Label _ -> "is passed by no caller outside test/ and its own module"
          | Ctor -> "is built nowhere outside test/"
        in
        fail "%s: %s %s: delete it, unexport it, or allow-list it in %s with a reason"
          e.where (key e) unused allow_path
      | true, true ->
        fail "%s: %s is allow-listed but now has a caller: remove its entry" e.where (key e)
      | _ -> ())
    exports;
  List.iter
    (fun (k, lnum) ->
      if not (List.exists (fun e -> key e = k) exports) then
        fail "%s:%d: allow-list entry %s names no export" allow_path lnum k)
    allow;
  let count p = List.length (List.filter (fun e -> p e.kind) exports) in
  Printf.printf
    "api_check: %d exported vals, %d optional labels, %d constructors, %d allow-listed, \
     %d problem(s)\n"
    (count (( = ) Val))
    (count (function Label _ -> true | _ -> false))
    (count (( = ) Ctor))
    (List.length allow) !failures;
  if !failures > 0 then exit 1
