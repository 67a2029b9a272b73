type weights = (Graph.node, float array) Hashtbl.t

type engine =
  | Naive
  | Gemm

let engine_of_string = function
  | "naive" -> Some Naive
  | "gemm" -> Some Gemm
  | _ -> None

let engine_to_string = function
  | Naive -> "naive"
  | Gemm -> "gemm"

exception Cancelled

let () =
  Printexc.register_printer (function
    | Cancelled -> Some "Executor.Cancelled (inference deadline expired)"
    | _ -> None)

(* Deadline poll at layer granularity: cheap enough to run per node, and
   the only cancellation points where every sample of a batch is in a
   consistent not-yet-started state. *)
let check_budget budget =
  match budget with
  | Some b when Compass_util.Budget.expired b -> raise Cancelled
  | Some _ | None -> ()

let random_weights ?(seed = 7) g =
  let scale = 0.1 in
  let rng = Compass_util.Rng.create seed in
  let weights = Hashtbl.create 32 in
  List.iter
    (fun node ->
      let n = Layer.weight_params (Graph.layer g node).Layer.op in
      let data =
        Array.init n (fun _ -> Compass_util.Rng.float rng (2. *. scale) -. scale)
      in
      Hashtbl.add weights node data)
    (Graph.weighted_nodes g);
  weights

let random_input ?(seed = 11) g =
  match Graph.entry_nodes g with
  | [ input ] ->
    let rng = Compass_util.Rng.create seed in
    Tensor.create (Graph.shape_of g input) (fun _ -> Compass_util.Rng.float rng 1.)
  | _ -> invalid_arg "Executor.random_input: expected exactly one input"

let weights_of weights node =
  match Hashtbl.find_opt weights node with
  | Some w -> w
  | None -> invalid_arg (Printf.sprintf "Executor: missing weights for node %d" node)

(* One located diagnostic instead of a bare size mismatch from the
   kernel: which node, which layer, what geometry, both counts. *)
let checked_weights g weights node =
  let layer = Graph.layer g node in
  let data = weights_of weights node in
  let expected = Layer.weight_params layer.Layer.op in
  let actual = Array.length data in
  if actual <> expected then begin
    let geometry =
      match layer.Layer.op with
      | Layer.Conv { in_channels; out_channels; kernel_h; kernel_w; groups; _ } ->
        Printf.sprintf "%d x %d/%d x %dx%d" out_channels in_channels groups kernel_h
          kernel_w
      | Layer.Linear { in_features; out_features } ->
        Printf.sprintf "%d x %d" out_features in_features
      | _ -> "-"
    in
    invalid_arg
      (Printf.sprintf
         "Executor: node %d (%s, %s %s): expected %d weight elements, got %d"
         node layer.Layer.name
         (Layer.op_kind layer.Layer.op)
         geometry expected actual)
  end;
  data

let apply_node ?(engine = Gemm) ?scratch g weights node inputs =
  let one () =
    match inputs with
    | [ t ] -> t
    | _ -> invalid_arg "Executor.apply_node: arity"
  in
  match (Graph.layer g node).Layer.op with
  | Layer.Input _ -> invalid_arg "Executor.apply_node: Input has no computation"
  | Layer.Conv conv -> (
    let w = checked_weights g weights node in
    match engine with
    | Naive -> Tensor.conv2d conv ~weights:w (one ())
    | Gemm -> Tensor.conv2d_gemm ?scratch conv ~weights:w (one ()))
  | Layer.Linear { in_features; out_features } -> (
    let w = checked_weights g weights node in
    match engine with
    | Naive -> Tensor.linear ~in_features ~out_features ~weights:w (one ())
    | Gemm -> Tensor.linear_gemm ~in_features ~out_features ~weights:w (one ()))
  | Layer.Pool { kind = Layer.Max; kernel; stride; padding } ->
    Tensor.max_pool ~kernel ~stride ~padding (one ())
  | Layer.Pool { kind = Layer.Avg; kernel; stride; padding } ->
    Tensor.avg_pool ~kernel ~stride ~padding (one ())
  | Layer.Global_avg_pool -> Tensor.global_avg_pool (one ())
  | Layer.Relu -> Tensor.relu (one ())
  | Layer.Batch_norm | Layer.Dropout -> one ()
  | Layer.Add -> (
    match inputs with
    | [ a; b ] -> Tensor.add a b
    | _ -> invalid_arg "Executor.apply_node: Add arity")
  | Layer.Concat -> Tensor.concat inputs
  | Layer.Flatten -> Tensor.flatten (one ())

let layer_span_args g node =
  [
    ("node", string_of_int node);
    ("kind", Layer.op_kind (Graph.layer g node).Layer.op);
  ]

(* The one traversal behind [output] and [output_batch].  Each layer
   runs over every sample before the next starts, optionally fanning the
   batch across pool domains ([Pool.map_local] preserves input order, so
   results are deterministic for any worker count).  A node's tensors
   leave the table right after its last consumer in topological order
   has run, so the table holds only live activations; the unique exit,
   which nothing consumes, is the one entry left at the end.  Dropping
   an entry only drops a reference, so aliasing layers and the caller's
   inputs need no care. *)
let forward ~name ~span_args ~engine ?budget ?pool ?supervision g weights inputs =
  let exit =
    match Graph.exit_nodes g with
    | [ exit ] -> exit
    | _ -> invalid_arg (name ^ ": expected exactly one exit")
  in
  let n = Array.length inputs in
  let parallel =
    match pool with
    | Some p when Compass_util.Pool.jobs p > 1 && n > 1 -> Some p
    | _ -> None
  in
  let order = Graph.topo_order g in
  let last_consumer = Array.make (Graph.node_count g) (-1) in
  List.iter (fun v -> List.iter (fun u -> last_consumer.(u) <- v) (Graph.preds g v)) order;
  (* Activation bytes held, summed over the table at each layer
     boundary, for the [infer.live_bytes_peak] gauge. *)
  let metered = Compass_util.Metrics.enabled () in
  let bytes node = 8 * n * Shape.elements (Graph.shape_of g node) in
  let live = ref 0 and peak = ref 0 in
  let scratch = Im2col.create_scratch () in
  let outputs : (Graph.node, Tensor.t array) Hashtbl.t = Hashtbl.create 64 in
  List.iter
    (fun node ->
      check_budget budget;
      let results =
        match (Graph.layer g node).Layer.op with
        | Layer.Input shape ->
          Array.iter
            (fun t ->
              if not (Shape.equal shape (Tensor.shape t)) then
                invalid_arg (name ^ ": input shape mismatch"))
            inputs;
          inputs
        | _ ->
          let preds = List.map (Hashtbl.find outputs) (Graph.preds g node) in
          let eval scratch i =
            apply_node ~engine ~scratch g weights node
              (List.map (fun outs -> outs.(i)) preds)
          in
          Compass_util.Trace.with_span "infer.layer"
            ~args:(span_args @ layer_span_args g node)
            (fun () ->
              match parallel with
              | Some p ->
                Compass_util.Pool.map_local ?supervision p ~init:Im2col.create_scratch
                  ~f:eval (Array.init n Fun.id)
              | None -> Array.init n (eval scratch))
      in
      Hashtbl.add outputs node results;
      if metered then begin
        live := !live + bytes node;
        peak := Int.max !peak !live
      end;
      List.iter
        (fun u ->
          if last_consumer.(u) = node && Hashtbl.mem outputs u then begin
            Hashtbl.remove outputs u;
            if metered then live := !live - bytes u
          end)
        (Graph.preds g node))
    order;
  if metered then Compass_util.Metrics.set "infer.live_bytes_peak" (float_of_int !peak);
  Hashtbl.find outputs exit

let output ?(engine = Gemm) ?budget g weights input =
  (forward ~name:"Executor.output" ~span_args:[] ~engine ?budget g weights [| input |]).(0)

let output_batch ?(engine = Gemm) ?budget ?pool ?supervision g weights inputs =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Executor.output_batch: empty batch";
  Compass_util.Failpoint.guard "executor.batch";
  forward ~name:"Executor.output_batch"
    ~span_args:[ ("batch", string_of_int n) ]
    ~engine ?budget ?pool ?supervision g weights inputs
