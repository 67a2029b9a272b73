(* Data rows of a rendered table: every line but the header and its
   separator. *)
let rows t = List.length (String.split_on_char '\n' (Compass_util.Table.render t)) - 2

(* A tensor holding a copy of [data]. *)
let tensor_of_array shape data = Compass_nn.Tensor.create shape (Array.get data)

(* One [partition_io] per partition of [group], in order. *)
let group_io ctx group =
  Array.of_list
    (List.map
       (fun (s : Compass_core.Partition.span) ->
         Compass_core.Dataflow.span_io ctx ~start_:s.start_ ~stop:s.stop)
       (Compass_core.Partition.spans group))

(* Parse a GA checkpoint from text through the file loader, the one
   checkpoint reader the program exposes. *)
let checkpoint_of_string text =
  let path = Filename.temp_file "compass" ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_bin path (fun oc -> output_string oc text);
      Compass_core.Plan_text.load_checkpoint path)

(* Every node's tensor from a keep-everything walk of [apply_node] in
   topological order: the reference that [Executor.output]'s freeing
   traversal is checked against, and the way to read intermediate
   nodes. *)
let walk ?engine g weights input =
  let open Compass_nn in
  let outputs = Hashtbl.create 64 in
  let scratch = Im2col.create_scratch () in
  List.iter
    (fun node ->
      let t =
        match (Graph.layer g node).Layer.op with
        | Layer.Input _ -> input
        | _ ->
          Executor.apply_node ?engine ~scratch g weights node
            (List.map (Hashtbl.find outputs) (Graph.preds g node))
      in
      Hashtbl.add outputs node t)
    (Graph.topo_order g);
  Hashtbl.find outputs
