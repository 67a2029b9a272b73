(** Located diagnostics, shared by every text grammar.

    Model descriptions, archived plans, GA checkpoints, fault and
    failpoint specs and serve requests all report a malformed input the
    same way: one {!Error} naming the source, the 1-based line and column
    of the offending token, and a message.  The lexing helpers below give
    every token its own line and column, so a grammar fails at a token
    without searching for it. *)

type t = {
  file : string option;
      (** Where the text came from: a path, or the flag or environment
          variable that carried a spec ([--faults], [COMPASS_FAILPOINTS]). *)
  line : int;  (** 1-based; 0 when the complaint concerns the whole input. *)
  col : int;  (** 1-based; 0 when no single token is at fault. *)
  msg : string;
}

exception Error of t

val fail : ?line:int -> ?col:int -> ('a, unit, string, 'b) format4 -> 'a
(** [fail ?line ?col fmt ...] raises {!Error} with no file; [line] and
    [col] default to 0 (absent). *)

val render : t -> string
(** ["file:line:col: msg"], dropping each absent part.  Without a file
    the rendering is ["line N: msg"] (or just the message at line 0), so a
    diagnostic about an unnamed buffer reads the same with or without a
    known column. *)

val in_file : string -> (unit -> 'a) -> 'a
(** [in_file source f] runs [f], stamping [source] on any {!Error}
    escaping it that does not already name a file. *)

val shift : line:int -> col:int -> (unit -> 'a) -> 'a
(** [shift ~line ~col f] re-bases the errors of a nested grammar onto its
    host: [f] parses text whose first character sits at host line [line],
    column [col].  A nested line-[k] error moves to host line
    [line + k - 1]; columns move by [col - 1] on the nested text's first
    line only.  A nested whole-input error (line 0) lands on [line]. *)

(** {1 Lexing} *)

type token = {
  text : string;
  line : int;  (** 1-based source line *)
  col : int;  (** 1-based column of [text]'s first character *)
}

val lines : string -> token list
(** Every line of a text (split on ['\n'], blank ones included), numbered
    from 1, each at column 1. *)

val split : char -> token -> token list
(** [split c tok] splits at every [c]; each piece keeps its column.
    Empty pieces are kept, as by [String.split_on_char]. *)

val cut : char -> token -> (token * token) option
(** [cut c tok] splits at the first [c]: the text before and after it.
    [None] when [tok] has no [c].  [cut ' '] is the [key value] split of
    the line-oriented formats. *)

val trim : token -> token
(** Strip surrounding whitespace, keeping the column of the first kept
    character. *)

val words : ?sep:char -> token -> token list
(** The non-blank pieces between [sep]s (default: space), trimmed, each
    at its own column. *)

val at : token -> ('a, unit, string, 'b) format4 -> 'a
(** [at tok fmt ...] raises {!Error} at [tok]'s line and column. *)

val int : ?valid:(int -> bool) -> (string -> string) -> token -> int
(** [int msg tok] reads [tok] as an integer accepted by [valid] (default:
    any), or raises {!Error} at [tok] with message [msg tok.text]. *)

val float : ?valid:(float -> bool) -> (string -> string) -> token -> float
(** As {!int}, for floats. *)
