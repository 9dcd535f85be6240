(** The scan driver: source discovery, parsing, whole-program analysis,
    rule dispatch and suppression filtering. *)

val parse_structure :
  rel:string -> string -> (Parsetree.structure, Finding.t) result
(** Parse implementation text; a syntax/lexical failure becomes a
    [parse-error] finding rather than an exception. *)

type source = { rel : string; text : string; mli : string option }
(** One implementation to lint: path relative to the scan root, its
    text, and the text of its interface when one exists. *)

val check_sources : rules:Rule.t list -> source list -> Finding.t list
(** Lint a set of files together.  Every file that parses joins the
    {!Project} over which [check_project] rules run.  Suppression
    directives are applied per file across {e all} findings — per-file
    and project alike — and malformed directives, directives naming an
    unknown rule, and unused directives for the selected [rules] are
    reported as errors. *)

val check_source :
  ?has_mli:bool -> rules:Rule.t list -> rel:string -> string -> Finding.t list
(** Single-file convenience over {!check_sources} (a one-file project).
    [has_mli] (default [true]) feeds the file-level rules; the synthetic
    interface exports nothing, which only matters cross-module. *)

val list_sources : root:string -> string list
(** All [.ml]/[.mli] paths under [root], relative, sorted, skipping
    hidden and underscore-prefixed directories ([_build], [.git], ...). *)

val scan : ?rules:Rule.t list -> root:string -> unit -> Finding.t list
(** Lint the whole tree under [root]. *)
