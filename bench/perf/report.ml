(* BENCHMARK.json, result files, and the comparison of two result sets. *)

open Measure

type declared = {
  d_name : string;
  d_unit : string;
  d_better : better;
  d_bound : float option;  (** end-to-end metrics only *)
}

type spec = {
  run_seconds : float;
  workloads : string list;
  end_to_end : declared list;
  per_layer : declared list;
}

let read_file path = In_channel.with_open_bin path In_channel.input_all

let load_spec path =
  let j = Json.of_string (read_file path) in
  let declared key =
    List.map
      (fun m ->
        {
          d_name = Json.to_str (Json.member "name" m);
          d_unit = Json.to_str (Json.member "unit" m);
          d_better = better_of_string (Json.to_str (Json.member "better" m));
          d_bound = (match Json.member "bound" m with Json.Num b -> Some b | _ -> None);
        })
      (Json.to_list (Json.member key j))
  in
  {
    run_seconds = Json.to_num (Json.member "run_seconds" j);
    workloads =
      List.map
        (fun w -> Json.to_str (Json.member "name" w))
        (Json.to_list (Json.member "workloads" j));
    end_to_end = declared "end_to_end";
    per_layer = declared "per_layer";
  }

let find_declared spec name =
  List.find_opt (fun d -> d.d_name = name) (spec.end_to_end @ spec.per_layer)

(* The regression bound of a metric: the declared one for end-to-end
   metrics, zero for per-layer values that repeat exactly, none for the
   per-layer timings (reported, never judged). *)
let bound_of spec (m : metric) =
  match List.find_opt (fun d -> d.d_name = m.name) spec.end_to_end with
  | Some d -> d.d_bound
  | None -> if m.exact then Some 0. else None

(* ------------------------------------------------------------------ *)
(* One run                                                             *)

type run = {
  workload : string;
  seed : int;
  traced : bool;
  correct : bool;
  attempted : int;
  failed : int;
  metrics : (metric * float option) list;  (** with its bound *)
}

(* The commit of the working tree, when it is a git checkout. *)
let commit () =
  let read p = try Some (String.trim (read_file p)) with Sys_error _ -> None in
  match read ".git/HEAD" with
  | Some head when String.starts_with ~prefix:"ref: " head -> (
    let name = String.sub head 5 (String.length head - 5) in
    match read (".git/" ^ name) with
    | Some c -> c
    | None -> (
      let packed = Option.value (read ".git/packed-refs") ~default:"" in
      match
        List.find_opt
          (fun l -> String.ends_with ~suffix:(" " ^ name) l)
          (String.split_on_char '\n' packed)
      with
      | Some l -> List.hd (String.split_on_char ' ' l)
      | None -> "unknown"))
  | Some head -> head
  | None -> "unknown"

let metric_json (m, bound) =
  Json.Obj
    [
      ("name", Json.Str m.name);
      ("value", Json.Num m.value);
      ("unit", Json.Str m.unit_);
      ("better", Json.Str (better_to_string m.better));
      ("bound", match bound with Some b -> Json.Num b | None -> Json.Null);
    ]

let run_json r =
  Json.Obj
    [
      ("workload", Json.Str r.workload);
      ("seed", Json.Num (float_of_int r.seed));
      ("trace", Json.Bool r.traced);
      ("commit", Json.Str (commit ()));
      ("nproc", Json.Num (float_of_int (Domain.recommended_domain_count ())));
      ("ocaml", Json.Str Sys.ocaml_version);
      ("correct", Json.Bool r.correct);
      ("attempted", Json.Num (float_of_int r.attempted));
      ("failed", Json.Num (float_of_int r.failed));
      ("metrics", Json.Arr (List.map metric_json r.metrics));
    ]

let run_of_json j =
  let num k = Json.to_num (Json.member k j) in
  {
    workload = Json.to_str (Json.member "workload" j);
    seed = int_of_float (num "seed");
    traced = Json.member "trace" j = Json.Bool true;
    correct = Json.member "correct" j = Json.Bool true;
    attempted = int_of_float (num "attempted");
    failed = int_of_float (num "failed");
    metrics =
      List.map
        (fun m ->
          ( {
              name = Json.to_str (Json.member "name" m);
              value = (match Json.member "value" m with Json.Num x -> x | _ -> nan);
              unit_ = Json.to_str (Json.member "unit" m);
              better = better_of_string (Json.to_str (Json.member "better" m));
              exact = Json.member "bound" m = Json.Num 0.;
            },
            match Json.member "bound" m with Json.Num b -> Some b | _ -> None ))
        (Json.to_list (Json.member "metrics" j));
  }

(* A result file holds a list of runs; [append] adds one, so repeated
   runs of one command collect into a set that [diff] can read. *)
let load_runs path =
  List.map run_of_json (Json.to_list (Json.member "runs" (Json.of_string (read_file path))))

let append path r =
  let previous = if Sys.file_exists path then load_runs path else [] in
  let body =
    "{\"runs\": [\n"
    ^ String.concat ",\n" (List.map (fun r -> Json.to_string (run_json r)) (previous @ [ r ]))
    ^ "\n]}\n"
  in
  Compass_util.Artifact.write_atomic path body

(* The run's summary line: exactly the declared metrics of its kind.  A
   per-layer metric the workload never reaches reads 0. *)
let summary_line spec r =
  let declared = if r.traced then spec.per_layer else spec.end_to_end in
  let value d =
    match List.find_opt (fun (m, _) -> m.name = d.d_name) r.metrics with
    | Some (m, _) -> m.value
    | None -> 0.
  in
  Json.to_string
    (Json.Obj
       [
         ("correct", Json.Bool r.correct);
         ("attempted", Json.Num (float_of_int r.attempted));
         ("failed", Json.Num (float_of_int r.failed));
         ( "metrics",
           Json.Obj
             (List.map
                (fun d ->
                  ( d.d_name,
                    Json.Obj [ ("value", Json.Num (value d)); ("unit", Json.Str d.d_unit) ] ))
                declared) );
       ])

let missing_end_to_end spec r =
  if r.traced then []
  else
    List.filter
      (fun d -> not (List.exists (fun (m, _) -> m.name = d.d_name) r.metrics))
      spec.end_to_end

let table r =
  let t =
    Compass_util.Table.create
      ~aligns:Compass_util.Table.[ Left; Right; Left; Left; Right ]
      [ "metric"; "value"; "unit"; "better"; "bound" ]
  in
  List.iter
    (fun (m, bound) ->
      Compass_util.Table.add_row t
        [
          m.name;
          Printf.sprintf "%.6g" m.value;
          m.unit_;
          better_to_string m.better;
          (match bound with Some b -> Printf.sprintf "%g" b | None -> "-");
        ])
    r.metrics;
  Compass_util.Table.render t

(* ------------------------------------------------------------------ *)
(* diff                                                                *)

type verdict =
  | Better
  | Same
  | Worse
  | Unresolved

let verdict_to_string = function
  | Better -> "better"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

(* How much worse [b] is than [a], as a share of [a] (negative when
   better). *)
let worsening better a b =
  let d = match better with Lower -> b -. a | Higher -> a -. b in
  if a = 0. then if d = 0. then 0. else Float.copy_sign infinity d else d /. Float.abs a

(* Compare two sets of runs of one metric.  A spread wider than the
   bound on either side leaves the comparison unresolved unless every
   new run beats every base run.  [~medians_only] skips that test. *)
let classify ?(medians_only = false) ~better ~bound ~base ~fresh () =
  let change = worsening better (Stats.median base) (Stats.median fresh) in
  let all_better =
    List.for_all (fun b -> List.for_all (fun n -> worsening better b n < 0.) fresh) base
  in
  if (not medians_only) && bound > 0. && Float.max (Stats.spread base) (Stats.spread fresh) > bound
  then
    if all_better then Better else Unresolved
  else if change > bound then Worse
  else if change < -.bound then Better
  else Same

type row = {
  r_workload : string;
  r_metric : string;
  base_median : float;
  new_median : float;
  change : float;
  r_bound : float;
  verdict : verdict;
}

let diff spec ~base ~fresh =
  let keys runs =
    List.sort_uniq compare (List.map (fun r -> (r.workload, r.traced)) runs)
  in
  let values runs (w, traced) name =
    List.filter_map
      (fun r ->
        if r.workload = w && r.traced = traced then
          List.find_map (fun (m, _) -> if m.name = name then Some m else None) r.metrics
        else None)
      runs
  in
  List.concat_map
    (fun ((w, traced) as key) ->
      let names =
        List.concat_map
          (fun r ->
            if r.workload = w && r.traced = traced then List.map (fun (m, _) -> m) r.metrics
            else [])
          base
        |> List.sort_uniq (fun a b -> compare a.name b.name)
      in
      List.filter_map
        (fun (m : metric) ->
          let b = values base key m.name and n = values fresh key m.name in
          match (bound_of spec m, b, n) with
          | Some bound, _ :: _, _ :: _ ->
            let bv = List.map (fun m -> m.value) b and nv = List.map (fun m -> m.value) n in
            let bm = Stats.median bv and nm = Stats.median nv in
            Some
              {
                r_workload = w;
                r_metric = m.name;
                base_median = bm;
                new_median = nm;
                change = worsening m.better bm nm;
                r_bound = bound;
                (* A set-up is short and noisier than the passes; its
                   bound is there to catch work moved into set-up, so
                   only its median is judged. *)
                verdict =
                  classify ~medians_only:(m.name = "setup_s") ~better:m.better ~bound ~base:bv
                    ~fresh:nv ();
              }
          | _ -> None)
        names)
    (List.filter (fun k -> List.mem k (keys fresh)) (keys base))

let diff_table rows =
  let t =
    Compass_util.Table.create
      ~aligns:Compass_util.Table.[ Left; Left; Right; Right; Right; Right; Left ]
      [ "workload"; "metric"; "base"; "new"; "worse by"; "bound"; "verdict" ]
  in
  List.iter
    (fun r ->
      Compass_util.Table.add_row t
        [
          r.r_workload;
          r.r_metric;
          Printf.sprintf "%.6g" r.base_median;
          Printf.sprintf "%.6g" r.new_median;
          Printf.sprintf "%+.2f%%" (100. *. r.change);
          Printf.sprintf "%g" r.r_bound;
          verdict_to_string r.verdict;
        ])
    rows;
  Compass_util.Table.render t
