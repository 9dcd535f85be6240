(** Whole-program view over every parsed module under the scan root: a
    name-based resolver from dotted value paths to their defining let
    bindings, and the per-file {!Callgraph}s stitched into one global
    call graph (nodes renumbered into a single id space).

    Resolution matches the {e last} module component of a path against
    file basenames — the right fit for a dune-wrapped tree, where
    [Speedscale_util.Feq.approx], [Util.Feq.approx] and [Feq.approx]
    must all reach [lib/util/feq.ml].  Toplevel [module A = B] aliases
    are chased within the referring file; toplevel [open M] of a known
    file module lets bare names that do not resolve lexically reach
    [M]'s exports.  A [.mli] restricts visibility to the values it
    declares.  Homonymous modules are ambiguous and never resolve. *)

type input = {
  rel : string;
  str : Parsetree.structure;
  exported : string list option;
      (** value names the [.mli] declares; [None] = no interface,
          everything is visible *)
}

type file = {
  idx : int;
  rel : string;
  module_name : string;
  str : Parsetree.structure;
  exported : (string, unit) Hashtbl.t option;
  cg : Callgraph.t;
  base : int;  (** global id of this file's node 0 *)
  opens : string list;
  aliases : (string * string) list;
}

type t

val build : input list -> t
val files : t -> file array

val n_nodes : t -> int
(** Total nodes across all files; global ids are [0 .. n_nodes - 1]. *)

val owner : t -> int -> file
val local : t -> int -> Callgraph.node
(** The per-file node behind a global id ([id]/[parent] fields are
    file-local; use {!global} to lift). *)

val global : file -> Callgraph.node -> int
val calls : t -> int -> int list
(** Callees of a global node: per-file lexical edges plus resolved
    cross-module references. *)

val exports : file -> string -> bool
val toplevel_value : file -> string -> int option
(** Last toplevel binding of the name that the interface exposes, as a
    global id. *)

val resolve_qualified : t -> file -> mpath:string list -> name:string -> int option
(** Resolve [M1.(...).Mk.name] seen in [file]: alias-expand the last
    module component, look the module up, take its visible toplevel
    binding. *)

val resolve_open : t -> file -> name:string -> int option
(** Resolve a lexically-unresolved bare name through the file's toplevel
    [open]s. *)

val resolve_path : t -> file -> string list -> int option
(** Dotted path including the value name: [["Feq"; "approx"]], or a bare
    [["approx"]] (routed through the opens). *)
