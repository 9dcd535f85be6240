(** Abstract interpretation of float expressions over the whole-program
    call graph: every {!Callgraph} node gets an {!Absdom} summary of what
    it (or any full application of it, for a function) can evaluate to,
    solved to fixpoint by {!Taint.solve} with {!Absdom.widen} capping the
    interval lattice's infinite chains.

    The analysis is argument-insensitive (parameters are ⊤∪NaN, so one
    summary is sound for every call site) but flow-sensitive inside a
    body: [if]/[while]/guard conditions refine bare variables compared
    against literals — strict bounds via [Float.succ]/[Float.pred] — and
    a guard that always raises, or an [assert], refines the rest of the
    sequence.  Identifiers resolve locals, then file-local nodes, then
    cross-module paths through {!Project}.  [Power]'s alpha-derived
    getters are axiomatically non-negative (their invariant lives in
    [Power.make], behind a record field the interpreter cannot read). *)

type t
(** A solved analysis: project + per-node summaries. *)

val analyze : Project.t -> t
(** Run the summary fixpoint. *)

val project : t -> Project.t

val summary : t -> int -> Absdom.t
(** Summary of a global node id. *)

val converged : t -> bool
(** [false] iff {!Taint.solve} hit its pop bound; rules should then
    treat "proved safe" claims as inconclusive (findings stay findings,
    proofs of absence do not). *)

val widen_after : int
(** Fact changes at a node before widening engages. *)

type env
(** Evaluation environment at a program point: owning file + the
    abstract values of lexically-bound names (refined by dominating
    conditions). *)

val env_node : env -> int
(** Global id of the innermost binding whose right-hand side contains
    the current program point, [-1] at structure toplevel. *)

val lookup : env -> string -> Absdom.t option

val eval : env -> Parsetree.expression -> Absdom.t
(** Abstract value of an expression at this point. *)

val resolve_ref : env -> Parsetree.expression -> int option
(** Global node a (possibly qualified) identifier expression denotes,
    [None] when it is locally bound or unresolvable. *)

val iter_file : t -> Project.file -> (env -> Parsetree.expression -> unit) -> unit
(** Walk every expression of the file's structure in evaluation order,
    maintaining the environment (parameter binding, let extension,
    branch refinement); the callback fires before descent, like
    {!Callgraph.build}'s [on_expr]. *)
