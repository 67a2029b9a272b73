type row = {
  config : string;
  scheme : string;
  partitions : int;
  latency_s : float;
  throughput_per_s : float;
  energy_per_sample_j : float;
  edp_j_s : float;
}

let row_of_plan (plan : Compiler.t) =
  {
    config = Compiler.label plan;
    scheme = Compiler.scheme_to_string plan.Compiler.scheme;
    partitions = Partition.partition_count plan.Compiler.group;
    latency_s = plan.Compiler.perf.Estimator.batch_latency_s;
    throughput_per_s = plan.Compiler.perf.Estimator.throughput_per_s;
    energy_per_sample_j = plan.Compiler.perf.Estimator.energy_per_sample_j;
    edp_j_s = plan.Compiler.perf.Estimator.edp_j_s;
  }

let compare_schemes ?objective ?ga_params ~model ~chip ~batch () =
  (* One front end and one span cache for all schemes: every distinct span
     is estimated once no matter how many schemes request it. *)
  let prepared = Compiler.prepare ~model ~chip () in
  let cache = Estimator.Span_cache.create ~batch () in
  List.map
    (fun scheme ->
      row_of_plan
        (Compiler.compile_prepared ?objective ?ga_params ~cache ~batch prepared scheme))
    [ Compiler.Compass; Compiler.Greedy; Compiler.Layerwise ]

type gap_row = {
  gap_scheme : string;
  gap_value : float;
  gap : float;
}

let optimality_gap ?(objective = Fitness.Latency) ?ga_params ~model ~chip ~batch () =
  let prepared = Compiler.prepare ~model ~chip () in
  let cache = Estimator.Span_cache.create ~batch () in
  let plan scheme =
    Compiler.compile_prepared ~objective ?ga_params ~cache ~batch prepared scheme
  in
  let dp_plan = plan Compiler.Optimal in
  let dp =
    match dp_plan.Compiler.dp with
    | Some dp -> dp
    | None -> assert false (* the Optimal scheme always records its result *)
  in
  let bound = dp.Optimal.lower_bound in
  let row (p : Compiler.t) =
    let v = Optimal.objective_value objective p.Compiler.perf in
    {
      gap_scheme = Compiler.scheme_to_string p.Compiler.scheme;
      gap_value = v;
      gap = (if bound > 0. then (v /. bound) -. 1. else 0.);
    }
  in
  (dp, List.map row [ dp_plan; plan Compiler.Compass; plan Compiler.Greedy; plan Compiler.Layerwise ])

let optimality_gap_table ~objective (dp, rows) =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right ]
      [ "scheme"; Fitness.objective_to_string objective; "gap" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [ r.gap_scheme; Printf.sprintf "%.6g" r.gap_value; Printf.sprintf "%+.2f%%" (100. *. r.gap) ])
    rows;
  Table.add_row table
    [
      (if dp.Optimal.exact then "(dp optimum)" else "(dp lower bound)");
      Printf.sprintf "%.6g" dp.Optimal.lower_bound;
      "";
    ];
  table

let find_scheme rows name =
  match List.find_opt (fun r -> r.scheme = name) rows with
  | Some r -> r
  | None -> raise Not_found

let speedup rows ~over =
  let compass = find_scheme rows "compass" in
  let baseline = find_scheme rows over in
  compass.throughput_per_s /. baseline.throughput_per_s

let rows_table rows =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:
        [ Table.Left; Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "config"; "scheme"; "parts"; "latency"; "throughput"; "energy/inf"; "EDP(J.s)" ]
  in
  List.iter
    (fun r ->
      Table.add_row table
        [
          r.config;
          r.scheme;
          string_of_int r.partitions;
          Units.time_to_string r.latency_s;
          Printf.sprintf "%.1f/s" r.throughput_per_s;
          Units.energy_to_string r.energy_per_sample_j;
          Printf.sprintf "%.3g" r.edp_j_s;
        ])
    rows;
  table

let rows_to_csv rows =
  let header = "config,scheme,partitions,latency_s,throughput_per_s,energy_per_sample_j,edp_j_s" in
  let line r =
    Printf.sprintf "%s,%s,%d,%.9g,%.9g,%.9g,%.9g" r.config r.scheme r.partitions
      r.latency_s r.throughput_per_s r.energy_per_sample_j r.edp_j_s
  in
  String.concat "\n" (header :: List.map line rows) ^ "\n"

let write_csv path rows = Compass_util.Artifact.write_atomic path (rows_to_csv rows)

let support_table models chip =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left; Table.Left ]
      [ "Network"; "Linear(MB)"; "Conv(MB)"; "Total(MB)"; "Prev."; "Ours" ]
  in
  List.iter
    (fun model ->
      let s = Compass_nn.Summary.of_graph model in
      let prev = Compiler.supported_by_prior_compilers model chip in
      Table.add_row table
        [
          s.Compass_nn.Summary.model;
          Printf.sprintf "%.3f" s.Compass_nn.Summary.linear_mb;
          Printf.sprintf "%.3f" s.Compass_nn.Summary.conv_mb;
          Printf.sprintf "%.3f" s.Compass_nn.Summary.total_mb;
          (if prev then "V" else "X");
          "V";
        ])
    models;
  table

let endurance_table ?endurance_cycles plans =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "config"; "writes/inf"; "worst macro/inf"; "lifetime(inf)"; "lifetime(days@100/s)" ]
  in
  List.iter
    (fun (plan : Compiler.t) ->
      let e = plan.Compiler.perf.Estimator.endurance in
      let budget =
        match e.Estimator.projected_lifetime_inferences with
        | Some _ -> e.Estimator.projected_lifetime_inferences
        | None -> (
          match endurance_cycles with
          | Some b when e.Estimator.max_writes_per_macro_per_inference > 0. ->
            Some (b /. e.Estimator.max_writes_per_macro_per_inference)
          | _ -> None)
      in
      Table.add_row table
        [
          Compiler.label plan;
          Printf.sprintf "%.1f" e.Estimator.writes_per_inference;
          Printf.sprintf "%.3f" e.Estimator.max_writes_per_macro_per_inference;
          (match budget with Some n -> Printf.sprintf "%.3g" n | None -> "-");
          (match budget with
          | Some n -> Printf.sprintf "%.2f" (n /. 100. /. 86400.)
          | None -> "-");
        ])
    plans;
  table

let profile_table () =
  let open Compass_util in
  let table = Table.create ~aligns:[ Table.Left; Table.Right ] [ "metric"; "value" ] in
  List.iter
    (fun (name, v) -> Table.add_row table [ name; Metrics.value_to_string v ])
    (Metrics.snapshot ());
  (* Derived rates, appended after the raw catalogue. *)
  let int_of name = Option.value ~default:0 (Metrics.find_int name) in
  let ratio_row name hits misses =
    let total = hits + misses in
    if total > 0 then
      Table.add_row table
        [ name; Printf.sprintf "%.1f%%" (100. *. float_of_int hits /. float_of_int total) ]
  in
  ratio_row "estimator.span_cache.hit_rate"
    (int_of "estimator.span_cache.hits")
    (int_of "estimator.span_cache.misses");
  ratio_row "dram.row_hit_rate" (int_of "dram.row_hits") (int_of "dram.row_misses");
  table

let plan_layer_table (plan : Compiler.t) =
  let open Compass_util in
  let model = plan.Compiler.model in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Left ]
      [ "layer"; "partition"; "replication"; "stage time"; "bottleneck" ]
  in
  List.iteri
    (fun k (sp : Estimator.span_perf) ->
      let bottleneck_node =
        List.fold_left
          (fun acc (node, s) ->
            match acc with
            | Some (_, best) when best >= s -> acc
            | _ -> Some (node, s))
          None sp.Estimator.stage_times
      in
      List.iter
        (fun (node, stage_s) ->
          let name = (Compass_nn.Graph.layer model node).Compass_nn.Layer.name in
          let rep = Replication.replication_of sp.Estimator.replication node in
          let is_bottleneck =
            match bottleneck_node with Some (n, _) -> n = node | None -> false
          in
          Table.add_row table
            [
              name;
              Printf.sprintf "P%d" k;
              Printf.sprintf "x%d" rep;
              Units.time_to_string stage_s;
              (if is_bottleneck then "*" else "");
            ])
        sp.Estimator.stage_times)
    plan.Compiler.perf.Estimator.spans;
  table
