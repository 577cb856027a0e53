(** Minimal JSON writer for the tools' machine-readable reports
    ([hyperbench run --json], [hyperlint --json])
    without an external dependency.

    Numbers are floats throughout (the usual JSON compromise). *)

type t =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val to_string : t -> string
(** Pretty-printed with two-space indentation and a trailing newline —
    stable output, so two reports diff cleanly. *)
