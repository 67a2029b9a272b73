(** Textual model description format.

    The paper's toolchain consumes ONNX graphs; this module provides the
    equivalent front-end for this reproduction: a line-oriented format in
    which users describe networks without writing OCaml.  Channel and
    feature counts of inputs are inferred from the producers, so only
    output dimensions are spelled out:

    {v
    # LeNet-5
    model lenet5
    input in 1x28x28
    conv conv1 from in out=6 kernel=5 pad=2
    relu r1 from conv1
    avgpool p1 from r1 kernel=2 stride=2
    conv conv2 from p1 out=16 kernel=5 pad=0
    relu r2 from conv2
    avgpool p2 from r2 kernel=2 stride=2
    flatten f from p2
    linear fc1 from f out=120
    relu r3 from fc1
    linear fc2 from r3 out=84
    relu r4 from fc2
    linear fc3 from r4 out=10
    v}

    Operators: [input] (shape [CxHxW] or a single integer for vectors),
    [conv] (attributes [out], [kernel], optional [stride], [pad],
    [groups]), [depthwise] ([kernel], optional [stride], [pad]),
    [linear] ([out]), [maxpool]/[avgpool] ([kernel], [stride], optional
    [pad]), [relu], [bn], [dropout], [flatten], [gap], [add] (two
    producers), [concat] (two or more producers).  Blank lines and [#]
    comments are ignored. *)

val parse : string -> Graph.t
(** Parse a full description.  Raises {!Compass_util.Located.Error} on
    malformed input, at the offending token's column where one is at
    fault; shape-inference failures and invalid layer parameters are
    located the same way.  Whole-description complaints (empty, invalid
    graph) carry line 0. *)

val parse_file : string -> Graph.t
(** [parse_file path] reads ({!Compass_util.Artifact.read_file}) and
    parses a file; its errors name [path].  Raises [Sys_error] on IO
    failure. *)

val to_string : Graph.t -> string
(** Render a graph back to the textual format; [parse (to_string g)] is a
    graph with identical structure and shapes. *)
