(** Flags [( ** )] applications whose base the whole-program abstract
    interpreter ({!Absint}) cannot prove non-negative and whose exponent
    is not integral.  Dominating conditionals ([if s < 0.0 then
    invalid_arg ...; ...]), [let] bindings, producers with a positive
    range ([Power.alpha] et al.) and summaries of functions in other
    modules all count as proofs. *)

val rule : Rule.t
