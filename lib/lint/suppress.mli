(** Per-site suppression comments.

    A directive has the shape

    {v (* slint: allow <rule> -- <reason> *) v}

    The reason is mandatory.  A directive at the end of a code line
    suppresses that line's findings for [<rule>]; a directive alone on
    its line suppresses the next code line.  File-level findings
    (line 0, e.g. missing-mli) are suppressed by a directive anywhere in
    the file. *)

type t

val parse : known:string list -> file:string -> string -> t
(** Scan source text for directives naming one of the [known] rules. *)

val malformed : t -> Finding.t list
(** Directives missing a rule name or a reason, or naming a rule outside
    [known], reported as [suppress-syntax] errors. *)

val suppressed : t -> Finding.t -> bool
(** Whether a finding is governed by a directive (marks it used). *)

val unused : t -> ran:(string -> bool) -> file:string -> Finding.t list
(** [unused-suppression] errors for directives that matched nothing,
    restricted to rules for which [ran] holds (a directive for a rule
    outside the scan cannot have matched); call after filtering all
    findings of the file. *)
