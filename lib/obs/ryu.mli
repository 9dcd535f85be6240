(** Shortest round-trip decimal digits of a double, by Ryū (Ulf Adams,
    "Ryū: fast float-to-string conversion", PLDI 2018).

    Only the digit generation lives here; {!Json.float_to_string} lays the
    digits out. *)

val shortest : float -> int * int
(** [shortest x] is [(d, e)] such that [d * 10^e] is the decimal with the
    fewest significant digits that parses back to [|x|], and among those
    the one closest to [|x|] (an exact tie goes to the even [d]).  [d] has
    at most 17 digits and may end in zeros.  The sign of [x] is ignored.
    @raise Invalid_argument on zero, infinities and NaN. *)
