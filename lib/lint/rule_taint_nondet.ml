(* Interprocedural nondeterminism taint into obs record payloads.

   The syntactic [nondeterminism] rule flags global-Random call sites; this
   rule follows nondeterministic *values* through local calls.  Sources are
   the global Random API, wall clocks (Sys.time, Unix.gettimeofday),
   unordered Hashtbl iteration (iter/fold), and Filename.temp_file.  A
   function summary — "calling this can yield a source-dependent value" —
   is solved to fixpoint over the per-file {!Callgraph}; inside each
   function a small value-taint walk tracks let bindings and the parameters
   of closures applied alongside tainted arguments.  Sinks are the record
   payload constructors ([Record.make] and the harness [metric] / [counter]
   / [verdict] helpers): a sink whose argument is tainted means a bench
   record payload that cannot reproduce byte-identically, which breaks
   the determinism the verdict gate and its tests rely on. *)

open Parsetree
module S = Set.Make (String)
module M = Map.Make (String)

let name = "taint-nondet"

let doc =
  "a value derived from a nondeterminism source (global Random, Sys.time, \
   Unix.gettimeofday, Hashtbl.iter/fold, Filename.temp_file) flows — \
   possibly through local calls — into an obs record payload \
   (Record.make / metric / counter / verdict); payloads must be \
   reproducible, timings belong in the timing field (doc/LINTING.md \
   \"Dataflow rules\")"

let other_sources =
  [
    [ "Sys"; "time" ]; [ "Unix"; "gettimeofday" ]; [ "Hashtbl"; "iter" ];
    [ "Hashtbl"; "fold" ]; [ "Filename"; "temp_file" ];
  ]

(* The pretty name of the source an identifier expression denotes. *)
let source_of e =
  match Astq.path e with
  | None -> None
  | Some p -> (
    match List.rev p with
    | f :: "Random" :: _ when not (String.equal f "State") ->
      Some ("Random." ^ f)
    | _ ->
      if Astq.suffix_is e other_sources then Some (String.concat "." p)
      else None)

let sink_suffixes =
  [ [ "Record"; "make" ]; [ "metric" ]; [ "counter" ]; [ "verdict" ] ]

let iter_subexprs e visit =
  let expr it e =
    visit e;
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.expr it e

let contains_source e =
  let found = ref None in
  iter_subexprs e (fun sub ->
      if !found = None then
        match source_of sub with Some s -> found := Some s | None -> ());
  !found

let is_fun_literal e =
  match (Astq.strip e).pexp_desc with
  | Pexp_fun _ | Pexp_function _ -> true
  | _ -> false

(* Why an expression is tainted, for the report. *)
type why =
  | Direct of string  (* mentions a source itself *)
  | Via_node of string  (* mentions a tainted local function/binding *)
  | Via_var of string  (* mentions a tainted local variable *)

let check _ctx str =
  let cg = Callgraph.build str in
  let nodes = Callgraph.nodes cg in
  let n = Callgraph.n_nodes cg in
  let direct_src =
    Array.map (fun (nd : Callgraph.node) -> contains_source nd.body) nodes
  in
  let facts =
    Taint.solve ~n ~deps:(Callgraph.calls cg)
      ~init:(fun v -> direct_src.(v) <> None)
      ~join:( || ) ~equal:Bool.equal ()
  in
  let tainted_names =
    Array.fold_left
      (fun s (nd : Callgraph.node) ->
        if facts.Taint.fact nd.id then S.add nd.name s else s)
      S.empty nodes
  in
  (* Shortest source chain from a tainted node, for the message. *)
  let chain_of id =
    let rec go visited id =
      if List.mem id visited then None
      else
        match direct_src.(id) with
        | Some s -> Some ([ nodes.(id).name ], s)
        | None ->
          List.fold_left
            (fun acc callee ->
              match acc with
              | Some _ -> acc
              | None ->
                if callee < n && facts.Taint.fact callee then
                  Option.map
                    (fun (path, s) -> (nodes.(id).name :: path, s))
                    (go (id :: visited) callee)
                else None)
            None (Callgraph.calls cg id)
    in
    go [] id
  in
  let describe = function
    | Direct s -> Fmt.str "the payload argument calls %s directly" s
    | Via_var x ->
      Fmt.str
        "the payload argument depends on '%s', which carries a \
         source-derived value" x
    | Via_node f -> (
      match Callgraph.node_named cg f with
      | Some nd -> (
        match chain_of nd.id with
        | Some (path, s) ->
          Fmt.str "the payload argument reaches %s via %s" s
            (String.concat " -> " path)
        | None -> Fmt.str "the payload argument mentions tainted '%s'" f)
      | None -> Fmt.str "the payload argument mentions tainted '%s'" f)
  in
  let acc = ref [] in
  (* Locally-bound names, mapped to their taint.  Any local binding —
     tainted or not — shadows the file-level node summary of the same
     name, so an untainted rebinding really clears the taint. *)
  let tmap = ref M.empty in
  let why_tainted e =
    let found = ref None in
    iter_subexprs e (fun sub ->
        if !found = None then
          match source_of sub with
          | Some s -> found := Some (Direct s)
          | None -> (
            match (Astq.strip sub).pexp_desc with
            | Pexp_ident { txt = Longident.Lident x; _ } -> (
              match M.find_opt x !tmap with
              | Some true -> found := Some (Via_var x)
              | Some false -> ()
              | None ->
                if S.mem x tainted_names then found := Some (Via_node x))
            | _ -> ()));
    !found
  in
  let tainted e = why_tainted e <> None in
  let scoped map f =
    let saved = !tmap in
    tmap := map;
    Fun.protect ~finally:(fun () -> tmap := saved) f
  in
  let bind_pat taint_on pat map =
    List.fold_left (fun m x -> M.add x taint_on m) map (Astq.pat_vars pat)
  in
  (* Peel a literal fun chain: parameter patterns plus the innermost body. *)
  let rec peel_fun e pats =
    match (Astq.strip e).pexp_desc with
    | Pexp_fun (_, _, pat, body) -> peel_fun body (pat :: pats)
    | _ -> (List.rev pats, e)
  in
  let expr it e =
    (match Astq.apply_parts e with
    | Some (f, args) when Astq.suffix_is f sink_suffixes -> (
      match List.find_map why_tainted args with
      | Some why ->
        acc :=
          Finding.of_location ~rule:name ~severity:Finding.Error
            ~message:
              (Fmt.str
                 "nondeterministic value flows into an obs record payload: \
                  %s; keep payloads reproducible (timings belong in the \
                  timing field) or suppress with the audited invariant"
                 (describe why))
            e.pexp_loc
          :: !acc
      | None -> ())
    | _ -> ());
    match e.pexp_desc with
    | Pexp_let (_, vbs, body) ->
      List.iter (fun vb -> it.Ast_iterator.expr it vb.pvb_expr) vbs;
      let set =
        List.fold_left
          (fun s vb -> bind_pat (tainted vb.pvb_expr) vb.pvb_pat s)
          !tmap vbs
      in
      scoped set (fun () -> it.Ast_iterator.expr it body)
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (it.Ast_iterator.expr it) default;
      it.Ast_iterator.pat it pat;
      scoped (bind_pat false pat !tmap) (fun () ->
          it.Ast_iterator.expr it body)
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      it.Ast_iterator.expr it scrut;
      let t = tainted scrut in
      List.iter
        (fun (c : case) ->
          it.Ast_iterator.pat it c.pc_lhs;
          let inner = bind_pat t c.pc_lhs !tmap in
          Option.iter
            (fun g -> scoped inner (fun () -> it.Ast_iterator.expr it g))
            c.pc_guard;
          scoped inner (fun () -> it.Ast_iterator.expr it c.pc_rhs))
        cases
    | Pexp_function cases ->
      List.iter
        (fun (c : case) ->
          it.Ast_iterator.pat it c.pc_lhs;
          let inner = bind_pat false c.pc_lhs !tmap in
          Option.iter
            (fun g -> scoped inner (fun () -> it.Ast_iterator.expr it g))
            c.pc_guard;
          scoped inner (fun () -> it.Ast_iterator.expr it c.pc_rhs))
        cases
    | Pexp_apply (f, labelled) ->
      it.Ast_iterator.expr it f;
      let args = List.map snd labelled in
      (* closures applied alongside a tainted argument iterate over tainted
         data: their parameters carry the taint into their bodies *)
      let tainted_sibling =
        List.exists (fun a -> (not (is_fun_literal a)) && tainted a) args
      in
      List.iter
        (fun a ->
          if is_fun_literal a then begin
            let pats, body = peel_fun a [] in
            let set =
              List.fold_left
                (fun s p -> bind_pat tainted_sibling p s)
                !tmap pats
            in
            scoped set (fun () -> it.Ast_iterator.expr it body)
          end
          else it.Ast_iterator.expr it a)
        args
    | _ -> Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str;
  List.rev !acc

let example =
  "let noise () = Unix.gettimeofday ()\n\
   let sample () = Record.make ~value:(noise ()) ...\n\
   (* fires at the Record.make argument: wall-clock nondeterminism \
   reaches a benchmark payload through the call graph *)"

let rule =
  Rule.make ~doc ~severity:Finding.Error ~check_structure:check ~example name
