(** Plain-text table rendering for reports and the benchmark harness.

    A table is a header row plus data rows of strings; columns are padded to
    the widest cell.  Numeric convenience constructors right-align. *)

type align =
  | Left
  | Right

type t
(** A table under construction. *)

val create : ?aligns:align list -> string list -> t
(** [create headers] starts a table with the given column headers.
    [aligns] defaults to [Left] for every column; a short list is padded
    with [Left]. *)

val add_row : t -> string list -> unit
(** [add_row t cells] appends a data row.  Rows shorter than the header are
    padded with empty cells; longer rows raise [Invalid_argument]. *)

val render : t -> string
(** Render with a header separator, e.g.:
    {v
    name      | value
    ----------+------
    ResNet18  |  5.57
    v} *)

val print : t -> unit
(** [print t] writes [render t] followed by a newline to stdout. *)
