(* Deterministic fault injection ("failpoints") for chaos testing.

   Library code marks named fail sites with [guard]/[guard_write]; a
   schedule (from [COMPASS_FAILPOINTS] or [with_schedule]) arms rules
   that make chosen sites raise, simulate syscall errors, truncate
   payloads or delay.  Disabled — the default — every guard is a single
   atomic load, so guarded code pays nothing and behaves bit-identically
   to unguarded code (the bench [chaos] section pins the overhead).

   Armed, each guard takes a global mutex: firing decisions (hit
   counters, seeded Bernoulli draws) must be race-free because workers
   hit sites concurrently.  The enabled path is test-only machinery and
   is not performance-critical. *)

exception Injected of string

let () =
  Printexc.register_printer (function
    | Injected site -> Some (Printf.sprintf "injected failpoint %s fired" site)
    | _ -> None)

type action =
  | Raise
  | Errno of Unix.error
  | Truncate of int
  | Delay of float  (* seconds *)

type trigger =
  | Always
  | Once
  | Nth of int
  | Every of int
  | Prob of float * int  (* probability, seed *)

type rule = {
  r_site : string;  (* exact site, or a prefix ending in '*' *)
  r_action : action;
  r_trigger : trigger;
  r_rng : Rng.t option;  (* drawn under the mutex for [Prob] rules *)
  mutable r_hits : int;
  mutable r_fired : int;
}

let on = Atomic.make false
let mutex = Mutex.create ()
let rules : rule list ref = ref []
let spec_string : string option ref = ref None

(* Per-site guard counts, recorded while armed — lets tests assert a
   site was reached and the bench count guards per operation. *)
let observed : (string, int) Hashtbl.t = Hashtbl.create 32


(* {2 Spec parsing}

   spec    ::= clause (";" clause)*
   clause  ::= site "=" action ("@" trigger)?
   action  ::= "raise" | "enospc" | "eintr" | "eio"
             | "truncate:" BYTES | "delay:" MILLISECONDS
   trigger ::= "once" (default) | "always" | "nth:" K | "every:" K
             | "prob:" P ":" SEED                                     *)

(* Errors are located at the offending token's line and column (a
   newline separates clauses like ';'); the caller names the spec's
   source. *)

let parse_action clause (s : Located.token) =
  match Located.cut ':' s with
  | None -> (
    match s.text with
    | "raise" -> Raise
    | "enospc" -> Errno Unix.ENOSPC
    | "eintr" -> Errno Unix.EINTR
    | "eio" -> Errno Unix.EIO
    | _ -> Located.at s "unknown action %S in clause %S" s.text clause)
  | Some (key, arg) -> (
    match key.text with
    | "truncate" ->
      Truncate
        (Located.int ~valid:(fun n -> n >= 0)
           (fun a -> Printf.sprintf "bad truncate byte count %S in clause %S" a clause)
           arg)
    | "delay" ->
      let ms =
        Located.float ~valid:(fun ms -> ms >= 0.)
          (fun a -> Printf.sprintf "bad delay (milliseconds) %S in clause %S" a clause)
          arg
      in
      Delay (ms /. 1000.)
    | _ -> Located.at key "unknown action %S in clause %S" key.text clause)

let parse_trigger clause (s : Located.token) =
  let count what k =
    Located.int ~valid:(fun k -> k >= 1)
      (fun k -> Printf.sprintf "bad %s count %S in clause %S" what k clause)
      k
  in
  match Located.split ':' s with
  | [ { text = "once"; _ } ] -> Once
  | [ { text = "always"; _ } ] -> Always
  | [ { text = "nth"; _ }; k ] -> Nth (count "nth" k)
  | [ { text = "every"; _ }; k ] -> Every (count "every" k)
  | [ { text = "prob"; _ }; p; seed ] ->
    let bad _ =
      Printf.sprintf "bad prob trigger %S (expected prob:P:SEED, 0<=P<=1) in clause %S"
        s.text clause
    in
    let p = Located.float ~valid:(fun p -> p >= 0. && p <= 1.) bad p in
    Prob (p, Located.int bad seed)
  | _ -> Located.at s "unknown trigger %S in clause %S" s.text clause

let parse_clause (clause : Located.token) =
  match Located.cut '=' clause with
  | None ->
    Located.at clause "clause %S lacks '=' (expected site=action[@trigger])" clause.text
  | Some (site, rest) ->
    let site = Located.trim site in
    if site.text = "" then Located.at clause "clause %S names no site" clause.text;
    let action, trigger =
      match Located.cut '@' rest with
      | None -> (Located.trim rest, Once)
      | Some (action, trigger) ->
        (Located.trim action, parse_trigger clause.text (Located.trim trigger))
    in
    let action = parse_action clause.text action in
    let rng = match trigger with Prob (_, seed) -> Some (Rng.create seed) | _ -> None in
    { r_site = site.text; r_action = action; r_trigger = trigger; r_rng = rng;
      r_hits = 0; r_fired = 0 }

let parse spec =
  List.map parse_clause (List.concat_map (Located.words ~sep:';') (Located.lines spec))

let clear () =
  Mutex.lock mutex;
  rules := [];
  spec_string := None;
  Hashtbl.reset observed;
  Mutex.unlock mutex;
  Atomic.set on false

let set spec =
  if String.trim spec = "" then clear ()
  else begin
    let rs = parse spec in
    Mutex.lock mutex;
    rules := rs;
    spec_string := Some spec;
    Hashtbl.reset observed;
    Mutex.unlock mutex;
    Atomic.set on true
  end

let with_schedule spec f =
  let previous = !spec_string in
  set spec;
  Fun.protect
    ~finally:(fun () -> match previous with None -> clear () | Some s -> set s)
    f

(* [pattern] is an exact site, or a prefix ending in '*'. *)
let matches pattern site =
  pattern = site
  || String.ends_with ~suffix:"*" pattern
     && String.starts_with ~prefix:(String.sub pattern 0 (String.length pattern - 1)) site

let hits pattern =
  Mutex.lock mutex;
  let n =
    Hashtbl.fold (fun site k acc -> if matches pattern site then acc + k else acc) observed 0
  in
  Mutex.unlock mutex;
  n

let fired () =
  Mutex.lock mutex;
  let fs =
    List.filter_map
      (fun r -> if r.r_fired > 0 then Some (r.r_site, r.r_fired) else None)
      !rules
  in
  Mutex.unlock mutex;
  fs

(* Decide, under the mutex, which action (if any) fires at [site]; the
   action itself (raise / sleep) runs outside the lock. *)
let decide site =
  Mutex.lock mutex;
  Hashtbl.replace observed site
    (1 + Option.value ~default:0 (Hashtbl.find_opt observed site));
  let fired_action =
    List.find_map
      (fun r ->
        if not (matches r.r_site site) then None
        else begin
          r.r_hits <- r.r_hits + 1;
          let fire =
            match r.r_trigger with
            | Always -> true
            | Once -> r.r_hits = 1
            | Nth k -> r.r_hits = k
            | Every k -> r.r_hits mod k = 0
            | Prob (p, _) -> (
              match r.r_rng with Some rng -> Rng.float rng 1. < p | None -> false)
          in
          if fire then begin
            r.r_fired <- r.r_fired + 1;
            Some r.r_action
          end
          else None
        end)
      !rules
  in
  Mutex.unlock mutex;
  fired_action

let act site = function
  | Raise -> raise (Injected site)
  | Errno e -> raise (Unix.Unix_error (e, "failpoint", site))
  | Delay s -> Unix.sleepf s
  | Truncate _ -> ()  (* payload truncation only applies at [guard_write] *)

let guard site =
  if Atomic.get on then
    match decide site with None -> () | Some action -> act site action

let guard_write site payload =
  if not (Atomic.get on) then payload
  else
    match decide site with
    | None -> payload
    | Some (Truncate n) -> String.sub payload 0 (min n (String.length payload))
    | Some action ->
      act site action;
      payload

(* A malformed COMPASS_FAILPOINTS must not crash program start-up (the
   CLI's --failpoints flag gives the located, exit-2 path); warn and run
   un-armed instead. *)
let () =
  match Sys.getenv_opt "COMPASS_FAILPOINTS" with
  | None | Some "" -> ()
  | Some spec -> (
    try Located.in_file "COMPASS_FAILPOINTS" (fun () -> set spec)
    with Located.Error e -> Printf.eprintf "compass: ignoring %s\n%!" (Located.render e))
