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
