(** A pluggable lint rule.

    A rule may inspect the parsetree of one implementation
    ([check_structure]), file-level facts the engine computes
    ([check_source], currently just whether a matching [.mli] exists), or
    the whole-program abstract interpretation ([check_project], receiving
    the solved {!Absint.t} and returning findings across every file it
    covers).  [applies] filters by path relative to the scan root — the
    engine also applies it to the {e finding} paths a project check
    returns. *)

type ctx = { rel : string }  (** path of the file under scrutiny *)

type t = {
  name : string;
  doc : string;
  example : string;
      (** minimal source snippet that fires the rule, for [slint
          --explain]; empty when no snippet is curated *)
  severity : Finding.severity;
  applies : string -> bool;
  check_structure : (ctx -> Parsetree.structure -> Finding.t list) option;
  check_source : (ctx -> has_mli:bool -> Finding.t list) option;
  check_project : (Absint.t -> Finding.t list) option;
}

val everywhere : string -> bool
(** [applies] predicate matching every file. *)

val under : string -> string -> bool
(** [under dir rel] is true when [rel] lives below [dir ^ "/"]. *)

val lib_only : string -> bool
(** [under "lib"]. *)

val make :
  ?applies:(string -> bool) ->
  ?check_structure:(ctx -> Parsetree.structure -> Finding.t list) ->
  ?check_source:(ctx -> has_mli:bool -> Finding.t list) ->
  ?check_project:(Absint.t -> Finding.t list) ->
  ?example:string ->
  doc:string -> severity:Finding.severity -> string -> t

val find : name:string -> t list -> t option

val finding : t -> message:string -> Location.t -> Finding.t
(** Finding carrying the rule's name and severity. *)
