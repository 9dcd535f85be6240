(** Small parsetree query helpers shared by the rules. *)

val strip : Parsetree.expression -> Parsetree.expression
(** Drop type constraints, coercions and local opens. *)

val path : Parsetree.expression -> string list option
(** Flattened dotted path of an identifier expression. *)

val path_is : Parsetree.expression -> string list list -> bool
(** Exact-path membership test. *)

val suffix_is : Parsetree.expression -> string list list -> bool
(** Match the trailing components of a dotted path, so an alias prefix
    ([Speedscale.Power.alpha]) still matches [["Power"; "alpha"]]. *)

val float_const : Parsetree.expression -> float option
(** Value of a float literal, if the expression is one. *)

val signed_number : Parsetree.expression -> float option
(** Value of a float or integer literal, looking through the parser's
    folded sign and an explicit unary minus ([-1e-9], [~-. x]). *)

val is_float_literal : Parsetree.expression -> bool
(** Whether the expression is a (possibly negated) float literal. *)

val apply_parts :
  Parsetree.expression ->
  (Parsetree.expression * Parsetree.expression list) option
(** Head and (label-stripped) arguments of an application. *)

val pat_vars : Parsetree.pattern -> string list
(** All variable names bound by a pattern. *)

val iter_expressions :
  Parsetree.structure -> (Parsetree.expression -> unit) -> unit
(** Visit every expression of a structure, outermost first. *)
