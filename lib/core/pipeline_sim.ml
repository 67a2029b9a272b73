open Compass_nn

type stage = {
  node : Graph.node;
  items : int;
  item_time_s : float;
  producers : int list;
}

type result = {
  makespan_s : float;
  stage_busy_s : float array;
  bottleneck_index : int;
}

(* Nearest weighted-in-span ancestors of [node], looking through attached
   non-weighted nodes. *)
let weighted_ancestors model in_span node =
  let seen = Hashtbl.create 8 in
  let acc = ref [] in
  let rec walk n =
    if not (Hashtbl.mem seen n) then begin
      Hashtbl.add seen n ();
      List.iter
        (fun p ->
          let op = (Graph.layer model p).Layer.op in
          if Layer.is_weighted op && in_span p then acc := p :: !acc
          else if not (Layer.is_weighted op) then walk p)
        (Graph.preds model n)
    end
  in
  walk node;
  List.sort_uniq compare !acc

let stages_of_span ctx ~batch ~start_ ~stop =
  if batch < 1 then invalid_arg "Pipeline_sim.stages_of_span: batch < 1";
  let units = Dataflow.units ctx in
  let model = units.Unit_gen.model in
  let layers = Perf_model.span_layers ctx ~start_ ~stop in
  let replication = (Replication.place ~layers ctx ~batch ~start_ ~stop).replication in
  let index = Hashtbl.create 16 in
  List.iteri (fun i (p : Perf_model.layer_perf) -> Hashtbl.add index p.Perf_model.node i) layers;
  let in_span node = Hashtbl.mem index node in
  List.map
    (fun (p : Perf_model.layer_perf) ->
      let r = Replication.replication_of replication p.Perf_model.node in
      {
        node = p.Perf_model.node;
        items = max 1 p.Perf_model.mvms;
        item_time_s = p.Perf_model.op_time_s /. float_of_int r;
        producers =
          List.map (Hashtbl.find index)
            (weighted_ancestors model in_span p.Perf_model.node);
      })
    layers

let simulate ~batch stages =
  if stages = [] then invalid_arg "Pipeline_sim.simulate: no stages";
  if batch < 1 then invalid_arg "Pipeline_sim.simulate: batch < 1";
  let stages = Array.of_list stages in
  let n = Array.length stages in
  Array.iteri
    (fun i s ->
      List.iter
        (fun p ->
          if p < 0 || p >= n then invalid_arg "Pipeline_sim.simulate: bad producer";
          if p >= i then invalid_arg "Pipeline_sim.simulate: producers must precede")
        s.producers)
    stages;
  let totals = Array.map (fun s -> batch * s.items) stages in
  let completion = Array.map (fun total -> Array.make total 0.) totals in
  let makespan = ref 0. in
  let busy = Array.make n 0. in
  for l = 0 to n - 1 do
    let s = stages.(l) in
    let total = totals.(l) in
    let free = ref 0. in
    for k = 0 to total - 1 do
      (* Producer p must have produced the matching progress fraction. *)
      let ready =
        List.fold_left
          (fun acc p ->
            let needed =
              min (totals.(p) - 1)
                ((k + 1) * totals.(p) / total)
            in
            max acc completion.(p).(max 0 needed))
          0. s.producers
      in
      let start = max !free ready in
      let finish = start +. s.item_time_s in
      completion.(l).(k) <- finish;
      free := finish
    done;
    busy.(l) <- float_of_int total *. s.item_time_s;
    makespan := max !makespan completion.(l).(total - 1)
  done;
  let bottleneck = ref 0 in
  Array.iteri (fun i b -> if b > busy.(!bottleneck) then bottleneck := i) busy;
  { makespan_s = !makespan; stage_busy_s = busy; bottleneck_index = !bottleneck }

let estimator_agreement ctx ~batch ~start_ ~stop =
  let stages = stages_of_span ctx ~batch ~start_ ~stop in
  let sim = simulate ~batch stages in
  let sp = Estimator.span_perf ctx ~batch ~start_ ~stop in
  sim.makespan_s /. sp.Estimator.compute_s
