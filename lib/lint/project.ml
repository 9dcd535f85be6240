(* Whole-program view: every parsed module under the scan root, a
   resolver from dotted value paths to defining nodes, and the per-file
   call graphs of {!Callgraph} stitched into one project-wide graph.

   Resolution is name-based, tuned for a dune-wrapped tree: the *last*
   module component of a path is matched against file basenames, so
   [Speedscale_util.Feq.approx], [Util.Feq.approx] and [Feq.approx] all
   reach lib/util/feq.ml.  Toplevel [module A = B] aliases are chased
   (within the referring file) and toplevel [open M] of a known file
   module brings its exported values into scope for bare names that do
   not resolve lexically.  A [.mli] restricts what other modules can
   see: only values it declares are resolution targets.  Two files
   claiming the same module name make that name ambiguous and it stops
   resolving — a linter must not guess between homonyms. *)

open Parsetree

type input = {
  rel : string;
  str : structure;
  exported : string list option;  (* None: no .mli, everything visible *)
}

type file = {
  idx : int;
  rel : string;
  module_name : string;  (* capitalised basename: lib/util/feq.ml -> Feq *)
  str : structure;
  exported : (string, unit) Hashtbl.t option;
  cg : Callgraph.t;
  base : int;  (* global id of this file's node 0 *)
  opens : string list;  (* toplevel-opened module names, alias-expanded *)
  aliases : (string * string) list;  (* module A = ...B, toplevel only *)
}

type t = {
  files : file array;
  by_module : (string, int) Hashtbl.t;  (* -1 marks an ambiguous name *)
  node_file : int array;  (* global node id -> owning file index *)
  calls : int list array;  (* global call graph, global ids *)
}

let module_name_of_rel rel =
  String.capitalize_ascii
    (Filename.remove_extension (Filename.basename rel))

let files t = t.files
let n_nodes t = Array.length t.node_file
let owner t gid = t.files.(t.node_file.(gid))

let local t gid =
  let f = owner t gid in
  (Callgraph.nodes f.cg).(gid - f.base)

let global f (nd : Callgraph.node) = f.base + nd.id
let calls t gid = t.calls.(gid)

let exports f name =
  match f.exported with None -> true | Some h -> Hashtbl.mem h name

(* Last toplevel binding of [name] in [f] that its interface exposes. *)
let toplevel_value f name =
  if not (exports f name) then None
  else
    Array.fold_left
      (fun acc (nd : Callgraph.node) ->
        if nd.parent = -1 && String.equal nd.name name then Some (global f nd)
        else acc)
      None (Callgraph.nodes f.cg)

let lookup_module t name =
  match Hashtbl.find_opt t.by_module name with
  | Some idx when idx >= 0 -> Some t.files.(idx)
  | _ -> None

(* Chase [module A = B] aliases within the referring file; fuel-bounded
   so alias cycles (illegal OCaml anyway) cannot loop the linter. *)
let expand_alias src name =
  let rec go fuel name =
    if fuel = 0 then name
    else
      match List.assoc_opt name src.aliases with
      | Some target -> go (fuel - 1) target
      | None -> name
  in
  go 8 name

let resolve_qualified t src ~mpath ~name =
  match List.rev mpath with
  | [] -> None
  | last :: _ -> (
    match lookup_module t (expand_alias src last) with
    | Some f -> toplevel_value f name
    | None -> None)

(* A bare name that did not resolve lexically: try the file's toplevel
   opens, in source order (first open that exports the name wins, which
   over-approximates OCaml's last-open-wins but only matters when two
   opened modules export the same name). *)
let resolve_open t src ~name =
  List.fold_left
    (fun acc m ->
      match acc with
      | Some _ -> acc
      | None -> (
        match lookup_module t m with
        | Some f when f.idx <> src.idx -> toplevel_value f name
        | _ -> None))
    None src.opens

let resolve_path t src parts =
  match List.rev parts with
  | [] -> None
  | [ name ] -> resolve_open t src ~name
  | name :: rmpath -> resolve_qualified t src ~mpath:(List.rev rmpath) ~name

(* Toplevel [open]s and [module X = ...] aliases of a structure.  An
   opened dotted path keeps only its last component (the wrapped-library
   prefix is not a file module). *)
let opens_and_aliases str =
  let opens = ref [] and aliases = ref [] in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_open { popen_expr = { pmod_desc = Pmod_ident { txt; _ }; _ }; _ }
        -> (
        match List.rev (Longident.flatten txt) with
        | last :: _ -> opens := last :: !opens
        | [] -> ())
      | Pstr_module
          {
            pmb_name = { txt = Some alias; _ };
            pmb_expr = { pmod_desc = Pmod_ident { txt; _ }; _ };
            _;
          } -> (
        match List.rev (Longident.flatten txt) with
        | last :: _ -> aliases := (alias, last) :: !aliases
        | [] -> ())
      | _ -> ())
    str;
  (List.rev !opens, !aliases)

let build (inputs : input list) : t =
  (* Pass 1: per-file call graphs, collecting unresolved references as
     cross-module edge candidates. *)
  let pending = ref [] (* (file idx, local node, path parts) *) in
  let files =
    List.mapi
      (fun idx (inp : input) ->
        let rel = inp.rel and str = inp.str in
        let on_expr (ctx : Callgraph.ctx) e =
          if ctx.node >= 0 then
            match e.pexp_desc with
            | Pexp_ident { txt = Longident.Ldot _ as lid; _ } -> (
              match Longident.flatten lid with
              | parts -> pending := (idx, ctx.node, parts) :: !pending
              | exception Misc.Fatal_error -> ())
            | Pexp_ident { txt = Longident.Lident x; _ }
              when ctx.resolve x = None ->
              (* Either shadowed or defined elsewhere; resolution against
                 the opens decides later, so a shadowed name only links
                 if an opened module happens to export it too. *)
              pending := (idx, ctx.node, [ x ]) :: !pending
            | _ -> ()
        in
        let cg = Callgraph.build ~on_expr str in
        let opens, aliases = opens_and_aliases str in
        let exported =
          Option.map
            (fun names ->
              let h = Hashtbl.create (List.length names + 1) in
              List.iter (fun n -> Hashtbl.replace h n ()) names;
              h)
            inp.exported
        in
        {
          idx;
          rel;
          module_name = module_name_of_rel rel;
          str;
          exported;
          cg;
          base = 0;
          opens;
          aliases;
        })
      inputs
  in
  (* Assign global id ranges and the module table. *)
  let by_module = Hashtbl.create 64 in
  let base = ref 0 in
  let files =
    List.map
      (fun f ->
        let f = { f with base = !base } in
        base := !base + Callgraph.n_nodes f.cg;
        (match Hashtbl.find_opt by_module f.module_name with
        | Some _ -> Hashtbl.replace by_module f.module_name (-1)
        | None -> Hashtbl.replace by_module f.module_name f.idx);
        f)
      files
  in
  let files = Array.of_list files in
  let n = !base in
  let node_file = Array.make n 0 in
  Array.iter
    (fun f ->
      for i = 0 to Callgraph.n_nodes f.cg - 1 do
        node_file.(f.base + i) <- f.idx
      done)
    files;
  let t = { files; by_module; node_file; calls = Array.make n [] } in
  (* Pass 2: lift per-file edges, then resolve the pending candidates. *)
  Array.iter
    (fun f ->
      for i = 0 to Callgraph.n_nodes f.cg - 1 do
        t.calls.(f.base + i) <-
          List.map (fun j -> f.base + j) (Callgraph.calls f.cg i)
      done)
    files;
  let add gid callee =
    if not (List.mem callee t.calls.(gid)) then
      t.calls.(gid) <- t.calls.(gid) @ [ callee ]
  in
  List.iter
    (fun (idx, node, parts) ->
      let src = files.(idx) in
      match resolve_path t src parts with
      | Some callee -> add (src.base + node) callee
      | None -> ())
    (List.rev !pending);
  t
