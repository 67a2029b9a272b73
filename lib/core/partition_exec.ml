open Compass_nn

type trace_entry = {
  partition : int;
  node : Graph.node;
  direction : [ `Load | `Store ];
}

type result = {
  output : Tensor.t;
  partitions_executed : int;
  traffic : trace_entry list;
  peak_live_tensors : int;
}

let run ?engine ctx group weights input =
  let units = Dataflow.units ctx in
  if Partition.total_units group <> Unit_gen.unit_count units then
    invalid_arg "Partition_exec.run: group does not cover the decomposition";
  let model = units.Unit_gen.model in
  let input_node =
    match Graph.entry_nodes model with
    | [ n ] -> n
    | _ -> invalid_arg "Partition_exec.run: expected exactly one input"
  in
  let exit_node =
    match Graph.exit_nodes model with
    | [ n ] -> n
    | _ -> invalid_arg "Partition_exec.run: expected exactly one output"
  in
  let spans = Array.of_list (Partition.spans group) in
  let nparts = Array.length spans in
  (* A node executes in the partition holding its last unit (its home). *)
  let home =
    Array.init (Graph.node_count model) (fun node ->
        let anchor = Dataflow.home_unit ctx node in
        if anchor < 0 then -1 else Partition.partition_of_unit group anchor)
  in
  (* Liveness in global memory: the last partition that reads each
     tensor, and per partition the tensors it frees. *)
  let last_reader = Array.make (Graph.node_count model) (-1) in
  List.iter
    (fun v ->
      let q = home.(v) in
      List.iter
        (fun u -> if home.(u) <> q then last_reader.(u) <- Int.max q last_reader.(u))
        (Graph.preds model v))
    (Graph.topo_order model);
  let frees = Array.make nparts [] in
  Array.iteri
    (fun u q -> if q >= 0 && u <> exit_node then frees.(q) <- u :: frees.(q))
    last_reader;
  let global : (Graph.node, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
  Hashtbl.add global input_node input;
  let traffic = ref [] in
  let peak = ref 1 in
  let final = ref None in
  let scratch = Im2col.create_scratch () in
  for p = 0 to nparts - 1 do
    Compass_util.Trace.with_span "partition_exec.partition"
      ~args:[ ("partition", string_of_int p) ]
    @@ fun () ->
    let local : (Graph.node, Tensor.t) Hashtbl.t = Hashtbl.create 32 in
    let loaded = Hashtbl.create 8 in
    let fetch v u =
      match Hashtbl.find_opt local u with
      | Some t -> t
      | None -> (
        match Hashtbl.find_opt global u with
        | Some t ->
          if not (Hashtbl.mem loaded u) then begin
            Hashtbl.add loaded u ();
            traffic := { partition = p; node = u; direction = `Load } :: !traffic
          end;
          t
        | None ->
          invalid_arg
            (Printf.sprintf "Partition_exec: node %d needs %d before it is available" v u))
    in
    (* Execute the partition's nodes in topological order. *)
    List.iter
      (fun v ->
        if v <> input_node && home.(v) = p then begin
          let inputs = List.map (fetch v) (Graph.preds model v) in
          Hashtbl.add local v (Executor.apply_node ?engine ~scratch model weights v inputs)
        end)
      (Graph.topo_order model);
    (* Store exit tensors: consumed by a later partition or the model exit. *)
    Hashtbl.iter
      (fun u t ->
        let consumed_later =
          List.exists (fun v -> home.(v) > p) (Graph.succs model u)
        in
        if consumed_later || u = exit_node then begin
          traffic := { partition = p; node = u; direction = `Store } :: !traffic;
          Hashtbl.replace global u t
        end)
      local;
    (* Free tensors whose last reader was this partition. *)
    List.iter (Hashtbl.remove global) frees.(p);
    peak := max !peak (Hashtbl.length global);
    if Hashtbl.mem local exit_node then final := Hashtbl.find_opt local exit_node
  done;
  let output =
    match !final with
    | Some t -> t
    | None -> (
      match Hashtbl.find_opt global exit_node with
      | Some t -> t
      | None -> invalid_arg "Partition_exec.run: output never produced")
  in
  {
    output;
    partitions_executed = nparts;
    traffic = List.rev !traffic;
    peak_live_tensors = !peak;
  }

let matches_reference ?engine ctx group weights input =
  let model = (Dataflow.units ctx).Unit_gen.model in
  let reference = Executor.output ?engine model weights input in
  let partitioned = (run ?engine ctx group weights input).output in
  Tensor.equal ~eps:1e-9 reference partitioned
