(** The project rules, in reporting order. *)

val all : Rule.t list
val names : string list

val select : string list -> Rule.t list
(** Resolve rule names; raises [Invalid_argument] on an unknown name. *)
