(** Minimal, dependency-free JSON layer for the benchmark pipeline.

    The encoder is {e canonical}: a given value always renders to the same
    bytes (object fields keep their insertion order, floats print by the
    fixed rule of {!float_to_string} and round-trip exactly, indentation
    is fixed at two spaces).  This is what lets a checked-in record file
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
(** The wire form of a float: the [%g] rendering at the smallest precision
    P in 15, 16, 17 whose text parses back to the identical bit pattern,
    plus these special cases:
    - [NaN], [Infinity] and [-Infinity] for the non-finite values;
    - an integral float below 1e16 in magnitude prints as [%.1f] ([3.0],
      [-0.0]);
    - [.0] is appended when the text has no [.], [e] or [E], so integral
      floats stay floats on decode.

    This is not always the shortest round-trip form.  The digits come from
    {!Ryu.shortest} (n of them), laid out as [%g] at P = max 15 n: trailing
    zeros stripped, the exponent form when the decimal exponent X is below
    -4 or at least P, at least two exponent digits.  Two classes run the
    rule itself ([%.15g], [%.16g], [%.17g] in turn, each parsed back): a
    subnormal with at most 15 shortest digits, whose wide rounding interval
    can hold a nearer 15-digit decimal than the shortest one ([%.15g] of
    4.9e-324 is [4.94065645841247e-324]); and a power of two with 16, where
    the narrow lower half of its interval can exclude the nearest 16-digit
    decimal, so the rule prints 17 digits. *)

val to_buffer : Buffer.t -> t -> unit
(** [to_buffer buf v] appends the canonical rendering of [v] (two-space
    indent, no trailing newline) to [buf]. *)

val to_string : t -> string
(** [to_buffer] into a fresh buffer. *)

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
