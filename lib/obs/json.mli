(** Minimal, dependency-free JSON layer for the benchmark pipeline.

    The encoder is {e canonical}: a given value always renders to the same
    bytes (object fields keep their insertion order, floats print in the
    shortest form that round-trips exactly, indentation is fixed at two
    spaces).  This is what lets a checked-in record file
    (test/bench_golden.json) act as a golden fixture — any schema or
    formatting drift shows up as a byte diff.

    Deviations from strict JSON, both directions: the bare tokens
    [Infinity], [-Infinity] and [NaN] encode the non-finite floats (the
    benchmark model keeps its numbers finite, but the layer must not
    corrupt data silently if one slips through). *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | Str of string
  | List of t list
  | Obj of (string * t) list

val equal : t -> t -> bool
(** Structural equality; floats compare with [Float.equal], so [NaN] equals
    itself and the round-trip law [decode (encode v) = v] is testable. *)

val float_to_string : float -> string
(** Shortest decimal representation that parses back to the identical bit
    pattern ([%.15g], widening to [%.16g]/[%.17g] only when needed).
    Integral floats render with a trailing [".0"] so they stay floats on
    decode. *)

val to_string : t -> string
(** Canonical pretty rendering (two-space indent, no trailing newline). *)

val of_string : string -> (t, string) result
(** Parser.  Numbers without [.], [e] or [E] decode as [Int] when they fit
    in an OCaml [int], as [Float] otherwise; [\uXXXX] escapes outside the
    surrogate range decode to UTF-8 bytes.  Errors carry a byte offset. *)

val member : string -> t -> t option
(** [member k (Obj fields)] is the first binding of [k], [None] on any
    other constructor or absent key. *)

val to_int : t -> (int, string) result
val to_float : t -> (float, string) result
(** [to_float] accepts [Int] too (JSON does not distinguish). *)

val to_str : t -> (string, string) result
val to_bool : t -> (bool, string) result
val to_list : t -> (t list, string) result
