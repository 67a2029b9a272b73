(* Metric values and the traced run's per-layer accounting. *)

type better =
  | Lower
  | Higher

let better_to_string = function Lower -> "lower" | Higher -> "higher"

let better_of_string = function
  | "lower" -> Lower
  | "higher" -> Higher
  | s -> invalid_arg ("better: " ^ s)

type metric = {
  name : string;
  value : float;
  unit_ : string;
  better : better;
  exact : bool;
      (** Repeats bit-for-bit for a fixed seed (modeled results and
          allocation counts), so two runs of one seed must agree
          exactly. *)
}

let metric ?(exact = false) name unit_ better value = { name; value; unit_; better; exact }

let now = Unix.gettimeofday

let timed f =
  let t0 = now () in
  let r = f () in
  (r, now () -. t0)

let peak_heap_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

(* ------------------------------------------------------------------ *)
(* Layers                                                              *)

(* A layer is one public entry point of the program, wrapped where the
   benchmark calls it.  Self time and self allocation subtract the
   layers nested inside; spans the library records on its own are not
   layers and are not subtracted. *)

type acc = {
  mutable self_s : float;
  mutable self_words : float;
  mutable calls : int;
}

type frame = {
  mutable child_s : float;
  mutable child_words : float;
}

let accs : (string, acc) Hashtbl.t = Hashtbl.create 32
let stack : frame list ref = ref []

let reset_layers () =
  Hashtbl.reset accs;
  stack := []

(* [layer name f] is [f ()]; while tracing is on it is also a
   [perf.<name>] trace span and is accounted under [name]. *)
let layer name f =
  if not (Compass_util.Trace.enabled ()) then f ()
  else begin
    let frame = { child_s = 0.; child_words = 0. } in
    let parent = match !stack with p :: _ -> Some p | [] -> None in
    stack := frame :: !stack;
    let w0 = Gc.minor_words () in
    let t0 = now () in
    let finish () =
      let dt = now () -. t0 in
      let dw = Gc.minor_words () -. w0 in
      stack := (match !stack with _ :: rest -> rest | [] -> []);
      Option.iter
        (fun p ->
          p.child_s <- p.child_s +. dt;
          p.child_words <- p.child_words +. dw)
        parent;
      let a =
        match Hashtbl.find_opt accs name with
        | Some a -> a
        | None ->
          let a = { self_s = 0.; self_words = 0.; calls = 0 } in
          Hashtbl.add accs name a;
          a
      in
      a.self_s <- a.self_s +. (dt -. frame.child_s);
      a.self_words <- a.self_words +. (dw -. frame.child_words);
      a.calls <- a.calls + 1
    in
    Fun.protect ~finally:finish (fun () -> Compass_util.Trace.with_span ("perf." ^ name) f)
  end

let find name = Hashtbl.find_opt accs name
let self_s name = match find name with Some a -> a.self_s | None -> 0.
let calls name = match find name with Some a -> a.calls | None -> 0

(* [<layer>.self_s] and [<layer>.minor_words] for each named layer. *)
let layer_metrics names =
  List.concat_map
    (fun name ->
      let a = Option.value (find name) ~default:{ self_s = 0.; self_words = 0.; calls = 0 } in
      [
        metric (name ^ ".self_s") "s" Lower a.self_s;
        metric ~exact:true (name ^ ".minor_words") "words" Lower a.self_words;
      ])
    names
