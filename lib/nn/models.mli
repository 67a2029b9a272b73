(** Model zoo.

    Exact reconstructions of the three evaluation networks of the paper
    (Table II) plus small models used by tests and examples.  All builders
    are deterministic and validate their graph before returning. *)

val vgg16 : unit -> Graph.t
(** VGG16 (Simonyan & Zisserman), 13 conv + 3 linear layers, 224x224x3
    input, 1000 classes. *)

val resnet18 : unit -> Graph.t
(** ResNet18 (He et al.) with basic blocks and 1x1 downsample shortcuts;
    residual [Add] nodes give partitions multiple entry/exit points. *)

val squeezenet : unit -> Graph.t
(** SqueezeNet v1.1 (Iandola et al.): fire modules with [Concat] nodes. *)

val lenet5 : unit -> Graph.t
(** LeNet-5 on 28x28x1 input; small enough to fit on-chip everywhere, used
    by tests and the quickstart example. *)

val by_name : string -> Graph.t
(** Lookup by lowercase name: the four above, plus
    - "tiny_mlp": three linear layers on a vector input, the smallest
      weighted model;
    - "tiny_resnet": a 6-conv residual network on 32x32x3 input that
      exercises skip-edge handling at test scale;
    - "alexnet" (Krizhevsky et al.): large 11x11 stem and ~28 MB of
      linear weights, another network far beyond the chips' capacity;
    - "vgg11": the shallow VGG configuration (A);
    - "resnet34": the basic-block ResNet at [3,4,6,3] depth;
    - "mobilenet_v1" (width 1.0): 13 depthwise-separable blocks, which
      exercise grouped convolutions, the natural edge workload for PIM
      chips.
    Raises [Not_found] otherwise. *)

val evaluation_models : unit -> Graph.t list
(** The three models of the paper's evaluation, in Table II order
    (VGG16, ResNet18, SqueezeNet). *)

val all_names : string list
(** Every name accepted by [by_name]. *)
