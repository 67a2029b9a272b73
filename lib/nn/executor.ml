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

let run ?engine ?budget g weights input =
  let outputs : (Graph.node, Tensor.t) Hashtbl.t = Hashtbl.create 64 in
  let scratch = Im2col.create_scratch () in
  List.iter
    (fun node ->
      check_budget budget;
      let result =
        match (Graph.layer g node).Layer.op with
        | Layer.Input shape ->
          if not (Shape.equal shape (Tensor.shape input)) then
            invalid_arg "Executor.run: input shape mismatch";
          input
        | _ ->
          let inputs = List.map (Hashtbl.find outputs) (Graph.preds g node) in
          Compass_util.Trace.with_span "infer.layer" ~args:(layer_span_args g node)
            (fun () -> apply_node ?engine ~scratch g weights node inputs)
      in
      Hashtbl.add outputs node result)
    (Graph.topo_order g);
  fun node ->
    match Hashtbl.find_opt outputs node with
    | Some t -> t
    | None -> invalid_arg "Executor.run: unknown node"

let output ?engine ?budget g weights input =
  match Graph.exit_nodes g with
  | [ exit ] -> run ?engine ?budget g weights input exit
  | _ -> invalid_arg "Executor.output: expected exactly one exit"

(* Batched traversal: one walk of the graph evaluates every sample at
   each layer, optionally fanning the batch across pool domains.
   [Pool.map]/[map_local] preserve input order, so results are
   deterministic for any worker count; the engine draws no randomness. *)
let run_batch ?(engine = Gemm) ?budget ?pool ?supervision g weights inputs =
  let n = Array.length inputs in
  if n = 0 then invalid_arg "Executor.run_batch: empty batch";
  Compass_util.Failpoint.guard "executor.batch";
  let parallel =
    match pool with
    | Some p when Compass_util.Pool.jobs p > 1 && n > 1 -> Some p
    | _ -> None
  in
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
                invalid_arg "Executor.run_batch: input shape mismatch")
            inputs;
          inputs
        | _ ->
          let preds = List.map (Hashtbl.find outputs) (Graph.preds g node) in
          let eval scratch i =
            apply_node ~engine ~scratch g weights node
              (List.map (fun outs -> outs.(i)) preds)
          in
          Compass_util.Trace.with_span "infer.layer"
            ~args:(("batch", string_of_int n) :: layer_span_args g node)
            (fun () ->
              match parallel with
              | Some p ->
                Compass_util.Pool.map_local ?supervision p ~init:Im2col.create_scratch
                  ~f:eval (Array.init n Fun.id)
              | None -> Array.init n (eval scratch))
      in
      Hashtbl.add outputs node results)
    (Graph.topo_order g);
  fun node ->
    match Hashtbl.find_opt outputs node with
    | Some t -> t
    | None -> invalid_arg "Executor.run_batch: unknown node"

let output_batch ?engine ?budget ?pool ?supervision g weights inputs =
  match Graph.exit_nodes g with
  | [ exit ] -> run_batch ?engine ?budget ?pool ?supervision g weights inputs exit
  | _ -> invalid_arg "Executor.output_batch: expected exactly one exit"
