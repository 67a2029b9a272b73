type point = {
  chip : Compass_arch.Config.chip;
  batch : int;
  throughput_per_s : float;
  energy_per_sample_j : float;
  edp_j_s : float;
  capacity_mb : float;
}

let sweep ?objective ?ga_params ?jobs ?budget ?supervision ~model ~chips ~batches () =
  let expired () =
    match budget with None -> false | Some b -> Compass_util.Budget.expired b
  in
  List.concat_map
    (fun chip ->
      (* The front end (units, validity map, span table) depends only on
         the chip, so it is built once per chip and shared by every batch
         point.  Under an expired budget, remaining combinations are
         skipped entirely — already-compiled points are kept, so the sweep
         is anytime at point granularity (each point's GA is additionally
         anytime on its own via the same budget). *)
      if expired () then []
      else
        let prepared = Compiler.prepare ~model ~chip () in
        List.filter_map
          (fun batch ->
            if expired () then None
            else
              let plan =
                Compass_util.Trace.with_span "explore.point"
                  ~args:
                    [
                      ("chip", chip.Compass_arch.Config.label);
                      ("batch", string_of_int batch);
                    ]
                @@ fun () ->
                Compass_util.Failpoint.guard "explore.point";
                Compiler.compile_prepared ?objective ?ga_params ?jobs ?budget
                  ?supervision ~batch prepared Compiler.Compass
              in
              Some
                {
                  chip;
                  batch;
                  throughput_per_s = plan.Compiler.perf.Estimator.throughput_per_s;
                  energy_per_sample_j = plan.Compiler.perf.Estimator.energy_per_sample_j;
                  edp_j_s = plan.Compiler.perf.Estimator.edp_j_s;
                  capacity_mb =
                    Compass_arch.Config.capacity_bytes chip /. Compass_util.Units.mib;
                })
          batches)
    chips

let dominates a b =
  a.throughput_per_s >= b.throughput_per_s
  && a.energy_per_sample_j <= b.energy_per_sample_j
  && (a.throughput_per_s > b.throughput_per_s
     || a.energy_per_sample_j < b.energy_per_sample_j)

let pareto points =
  let keep p = not (List.exists (fun q -> dominates q p) points) in
  let frontier = List.filter keep points in
  (* Drop duplicates on the two objectives, keeping the first. *)
  let rec dedup seen = function
    | [] -> []
    | p :: rest ->
      let key = (p.throughput_per_s, p.energy_per_sample_j) in
      if List.mem key seen then dedup seen rest else p :: dedup (key :: seen) rest
  in
  List.sort
    (fun a b -> compare a.energy_per_sample_j b.energy_per_sample_j)
    (dedup [] frontier)

let cheapest_meeting ~throughput_per_s points =
  let ok = List.filter (fun p -> p.throughput_per_s >= throughput_per_s) points in
  let better a b =
    compare
      (a.capacity_mb, a.energy_per_sample_j)
      (b.capacity_mb, b.energy_per_sample_j)
  in
  match List.sort better ok with [] -> None | p :: _ -> Some p

let points_table points =
  let open Compass_util in
  let table =
    Table.create
      ~aligns:[ Table.Left; Table.Right; Table.Right; Table.Right; Table.Right; Table.Right ]
      [ "chip"; "capacity(MB)"; "batch"; "throughput"; "energy/inf"; "EDP(J.s)" ]
  in
  List.iter
    (fun p ->
      Table.add_row table
        [
          p.chip.Compass_arch.Config.label;
          Printf.sprintf "%.3f" p.capacity_mb;
          string_of_int p.batch;
          Printf.sprintf "%.1f/s" p.throughput_per_s;
          Units.energy_to_string p.energy_per_sample_j;
          Printf.sprintf "%.3g" p.edp_j_s;
        ])
    points;
  table
