(** Nondeterminism: every use of the global [Random] state, and
    interprocedural taint — values derived from global Random, wall
    clocks, Hashtbl iteration order, or temp-file names must not reach
    obs record payload constructors ([Record.make],
    [metric]/[counter]/[verdict]), even through local calls.  Built on
    {!Callgraph} function summaries solved with {!Taint}. *)

val name : string
val rule : Rule.t
