(* Abstract interpretation of float expressions over the whole-program
   call graph.

   Every {!Callgraph} node (each [let] binding, toplevel or nested) gets
   a {e summary}: an {!Absdom} value over-approximating what the binding
   — or, for a function, any full application of it — can evaluate to.
   Summaries are solved to fixpoint by the bounded worklist in {!Taint},
   with parameters abstracted to ⊤∪NaN (the analysis is context- and
   argument-insensitive, so a summary is sound for every call site) and
   {!Absdom.widen} applied once a node's summary keeps changing, which
   caps the interval lattice's infinite ascending chains.

   Inside a body the evaluator is flow-sensitive where it cheaply can
   be: conditions refine the environment in both branches of an [if]
   (strict bounds via [Float.succ]/[Float.pred]), a guard that always
   raises refines the rest of the sequence, [assert] refines what
   follows, and [let] extends the environment — nested bindings reuse
   their own node summaries so local recursion is already solved.
   Identifier references resolve locals first, then file-local nodes,
   then — through {!Project} — qualified paths, aliases and opens into
   other modules.  Anything unknown is ⊤∪NaN; a handful of axioms cover
   stdlib constants and the [Power] getters whose non-negativity is
   enforced by [Power.make] (a record field access is opaque to the
   interpreter, so construction-time invariants must be trusted, not
   derived). *)

open Parsetree
module M = Map.Make (String)

type t = {
  project : Project.t;
  summaries : Absdom.t array;  (* global node id -> result approximation *)
  converged : bool;
}

type env = {
  analysis : t;
  file : Project.file;
  node : int;  (* global id of the enclosing binding, -1 at toplevel *)
  vars : Absdom.t M.t;  (* lexically-bound names in scope *)
}

let project t = t.project
let summary t gid = t.summaries.(gid)
let converged t = t.converged
let env_node env = env.node
let lookup env x = M.find_opt x env.vars

(* Stdlib / Float float constants. *)
let const_axiom path =
  match path with
  | [ "infinity" ] | [ "Float"; "infinity" ] | [ "Stdlib"; "infinity" ] ->
    Some (Absdom.const infinity)
  | [ "neg_infinity" ] | [ "Float"; "neg_infinity" ] ->
    Some (Absdom.const neg_infinity)
  | [ "nan" ] | [ "Float"; "nan" ] -> Some Absdom.nan_only
  | [ "max_float" ] | [ "Float"; "max_float" ] ->
    Some (Absdom.const max_float)
  | [ "min_float" ] | [ "Float"; "min_float" ] ->
    Some (Absdom.const min_float)
  | [ "epsilon_float" ] | [ "Float"; "epsilon" ] ->
    Some (Absdom.const epsilon_float)
  | [ "Float"; "pi" ] -> Some (Absdom.const Float.pi)
  | _ -> None

(* Producers whose range is non-negative by a construction-time invariant
   the interpreter cannot see (Power.make refuses alpha <= 1; the getters
   read record fields, which are ⊤ to us).  Kept in sync with the legacy
   unsafe-pow whitelist so the interprocedural rule never regresses it. *)
let trusted_nonneg =
  [
    [ "Power"; "alpha" ]; [ "Power"; "competitive_bound" ];
    [ "Power"; "delta_star" ]; [ "Power"; "rejection_speed_factor" ];
    [ "Power"; "cll_bound" ];
  ]

let raising_paths =
  [
    [ "invalid_arg" ]; [ "failwith" ]; [ "raise" ]; [ "raise_notrace" ];
    [ "Stdlib"; "invalid_arg" ]; [ "Stdlib"; "failwith" ];
    [ "Stdlib"; "raise" ];
  ]

let const_of = Astq.signed_number

let bare_var env e =
  match Astq.path (Astq.strip e) with
  | Some [ x ] when M.mem x env.vars -> Some x
  | _ -> None

(* The numeric constraint [x op c] imposes on [x] when the comparison is
   [truth]: interval bounds plus whether NaN survives.  A true strict or
   ordered comparison rules NaN out; a false one keeps it (x < c being
   false means x >= c *or* x is NaN). *)
let constraint_of op c truth =
  let next = Float.succ c and prev = Float.pred c in
  match (op, truth) with
  | "<", true -> Some (neg_infinity, prev, false)
  | "<", false -> Some (c, infinity, true)
  | "<=", true -> Some (neg_infinity, c, false)
  | "<=", false -> Some (next, infinity, true)
  | ">", true -> Some (next, infinity, false)
  | ">", false -> Some (neg_infinity, c, true)
  | ">=", true -> Some (c, infinity, false)
  | ">=", false -> Some (neg_infinity, prev, true)
  | "=", true -> Some (c, c, false)
  | "<>", false -> Some (c, c, false)
  | _ -> None

let flip_op = function
  | "<" -> ">"
  | "<=" -> ">="
  | ">" -> "<"
  | ">=" -> "<="
  | op -> op

(* Refine the environment under the assumption that [cond] evaluated to
   [truth].  Only bare in-scope variables compared against literal
   constants are refined; everything else leaves the env unchanged. *)
let rec refine env cond truth =
  match Astq.apply_parts cond with
  | Some (f, [ a; b ]) -> (
    let refine_var x op c =
      match constraint_of op c truth with
      | None -> env
      | Some (lo, hi, nan) ->
        let cur = M.find x env.vars in
        { env with vars = M.add x (Absdom.refine cur ~lo ~hi ~nan) env.vars }
    in
    match Astq.path f with
    | Some [ (("<" | "<=" | ">" | ">=" | "=" | "<>") as op) ] -> (
      match (bare_var env a, const_of b, const_of a, bare_var env b) with
      | Some x, Some c, _, _ -> refine_var x op c
      | _, _, Some c, Some x -> refine_var x (flip_op op) c
      | _ -> env)
    | Some [ "not" ] -> env
    | Some [ "&&" ] -> if truth then refine (refine env a truth) b truth else env
    | Some [ "||" ] ->
      if truth then env else refine (refine env a truth) b truth
    | _ ->
      if Astq.suffix_is f [ [ "Float"; "equal" ] ] then
        match (bare_var env a, const_of b, const_of a, bare_var env b) with
        | Some x, Some c, _, _ when not (Float.is_nan c) -> refine_var x "=" c
        | _, _, Some c, Some x when not (Float.is_nan c) -> refine_var x "=" c
        | _ -> env
      else if Astq.suffix_is f [ [ "Float"; "is_nan" ] ] then
        match args_single_var env cond with
        | Some x ->
          let cur = M.find x env.vars in
          let refined =
            if truth then Absdom.meet cur Absdom.nan_only
            else Absdom.refine cur ~lo:neg_infinity ~hi:infinity ~nan:false
          in
          { env with vars = M.add x refined env.vars }
        | None -> env
      else env)
  | Some (f, [ a ]) when Astq.path_is f [ [ "not" ] ] -> refine env a (not truth)
  | _ -> env

and args_single_var env cond =
  match Astq.apply_parts cond with
  | Some (_, [ a ]) -> bare_var env a
  | _ -> None

let always_raises e =
  let rec go e =
    match (Astq.strip e).pexp_desc with
    | Pexp_let (_, _, body) | Pexp_sequence (_, body) -> go body
    | Pexp_assert
        {
          pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          _;
        } ->
      true
    | _ -> (
      match Astq.apply_parts e with
      | Some (f, _) -> Astq.path_is f raising_paths
      | None -> false)
  in
  go e

(* The environment after the statement [e1] in [e1; e2] completed
   normally: a guard that always raises contributes its negation, an
   assert contributes its condition.  [None]: [e1] never completes. *)
let seq_env env e1 =
  match (Astq.strip e1).pexp_desc with
  | Pexp_ifthenelse (c, then_, None) when always_raises then_ ->
    Some (refine env c false)
  | Pexp_assert
      {
        pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
        _;
      } ->
    None
  | Pexp_assert c -> Some (refine env c true)
  | _ -> if always_raises e1 then None else Some env

(* The node a binding pattern's location belongs to, used to reuse the
   solved summary of nested [let] nodes instead of re-evaluating them. *)
let node_at (file : Project.file) (loc : Location.t) =
  Array.fold_left
    (fun acc (nd : Callgraph.node) ->
      if
        nd.loc.loc_start.pos_cnum = loc.loc_start.pos_cnum
        && String.equal nd.loc.loc_start.pos_fname loc.loc_start.pos_fname
      then Some nd
      else acc)
    None
    (Callgraph.nodes file.cg)

(* Global node an identifier expression denotes, if it is not locally
   bound: file-local nodes by (last-wins) name, then the cross-module
   resolver.  Used by rules to ask "does this mention that summary". *)
let resolve_ref env e =
  match Astq.path (Astq.strip e) with
  | Some [ x ] ->
    if M.mem x env.vars then None
    else (
      match Callgraph.node_named env.file.cg x with
      | Some nd -> Some (Project.global env.file nd)
      | None -> Project.resolve_open env.analysis.project env.file ~name:x)
  | Some parts -> Project.resolve_path env.analysis.project env.file parts
  | None -> None

let bind_tops pat vars =
  List.fold_left
    (fun m x -> M.add x Absdom.top_nan m)
    vars (Astq.pat_vars pat)

(* Peel a [fun p1 p2 -> body] chain, binding parameters to ⊤∪NaN. *)
let rec peel env e =
  match (Astq.strip e).pexp_desc with
  | Pexp_fun (_, _, pat, body) ->
    peel { env with vars = bind_tops pat env.vars } body
  | _ -> (env, e)

let rec eval env e : Absdom.t =
  let e = Astq.strip e in
  match const_of e with
  | Some c -> Absdom.const c
  | None -> (
    match e.pexp_desc with
    | Pexp_ident _ -> (
      match Astq.path e with
      | Some [ x ] when M.mem x env.vars -> M.find x env.vars
      | Some p -> (
        match const_axiom p with
        | Some v -> v
        | None -> (
          match resolve_ref env e with
          | Some gid -> env.analysis.summaries.(gid)
          | None -> Absdom.top_nan))
      | None -> Absdom.top_nan)
    | Pexp_apply (f, _) -> (
      let args =
        match Astq.apply_parts e with Some (_, a) -> a | None -> []
      in
      let unary op =
        match args with [ a ] -> op (eval env a) | _ -> Absdom.top_nan
      in
      let binary op =
        match args with
        | [ a; b ] -> op (eval env a) (eval env b)
        | _ -> Absdom.top_nan
      in
      match Astq.path f with
      | Some [ ("+." | "+") ] -> binary Absdom.add
      | Some [ ("-." | "-") ] -> (
        match args with
        | [ a; b ] -> Absdom.sub (eval env a) (eval env b)
        | [ a ] -> Absdom.neg (eval env a)
        | _ -> Absdom.top_nan)
      | Some [ ("~-." | "~-") ] -> unary Absdom.neg
      | Some [ ("~+." | "~+") ] -> unary Fun.id
      | Some [ ("*." | "*") ] -> binary Absdom.mul
      | Some [ ("/." | "/") ] -> binary Absdom.div
      | Some ([ "**" ] | [ "Stdlib"; "**" ] | [ "Float"; "pow" ]) ->
        binary Absdom.pow
      | Some ([ "sqrt" ] | [ "Float"; "sqrt" ]) -> unary Absdom.sqrt_
      | Some ([ "exp" ] | [ "Float"; "exp" ]) -> unary Absdom.exp_
      | Some ([ "log" ] | [ "Float"; "log" ]) -> unary Absdom.log_
      | Some ([ "abs_float" ] | [ "Float"; "abs" ]) -> unary Absdom.abs_
      | Some ([ "min" ] | [ "Stdlib"; "min" ] | [ "Float"; "min" ]) ->
        binary Absdom.fmin
      | Some ([ "max" ] | [ "Stdlib"; "max" ] | [ "Float"; "max" ]) ->
        binary Absdom.fmax
      | Some ([ "float_of_int" ] | [ "Float"; "of_int" ]) -> unary Fun.id
      | Some [ ("<" | "<=" | ">" | ">=" | "=" | "<>" | "==" | "!=" | "&&" | "||") ]
        ->
        Absdom.top (* boolean-valued *)
      | _ ->
        if Astq.path_is f raising_paths then Absdom.bot
        else if Astq.suffix_is f trusted_nonneg then
          Absdom.interval 0.0 infinity
        else (
          (* an application of a known binding: its summary already
             abstracts any full application's result *)
          match
            match Astq.path f with
            | Some [ x ] when M.mem x env.vars -> Some (M.find x env.vars)
            | _ ->
              Option.map
                (fun gid -> env.analysis.summaries.(gid))
                (resolve_ref env f)
          with
          | Some v -> v
          | None -> Absdom.top_nan))
    | Pexp_let (rf, vbs, body) ->
      let rhs_env =
        match rf with
        | Asttypes.Recursive ->
          List.fold_left
            (fun en vb -> { en with vars = bind_tops vb.pvb_pat en.vars })
            env vbs
        | Asttypes.Nonrecursive -> env
      in
      let env' =
        List.fold_left
          (fun en vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
              (* The node summary is sound for any environment but was
                 solved with the enclosing parameters unbound; a direct
                 evaluation in the current (refined) env is also sound.
                 Their meet keeps the sharper of the two. *)
              let direct = eval rhs_env vb.pvb_expr in
              let v =
                match node_at env.file vb.pvb_pat.ppat_loc with
                | Some nd ->
                  Absdom.meet
                    env.analysis.summaries.(Project.global env.file nd)
                    direct
                | None -> direct
              in
              { en with vars = M.add txt v en.vars }
            | _ -> { en with vars = bind_tops vb.pvb_pat en.vars })
          env vbs
      in
      eval env' body
    | Pexp_fun _ ->
      let env', body = peel env e in
      eval env' body
    | Pexp_function cases ->
      List.fold_left
        (fun acc (c : case) ->
          Absdom.join acc
            (eval { env with vars = bind_tops c.pc_lhs env.vars } c.pc_rhs))
        Absdom.bot cases
    | Pexp_ifthenelse (c, then_, else_) -> (
      let v1 = eval (refine env c true) then_ in
      match else_ with
      | Some e2 -> Absdom.join v1 (eval (refine env c false) e2)
      | None -> Absdom.top_nan)
    | Pexp_sequence (e1, e2) -> (
      match seq_env env e1 with
      | None -> Absdom.bot
      | Some env' -> eval env' e2)
    | Pexp_match (_, cases) | Pexp_try (_, cases) ->
      let base =
        match e.pexp_desc with
        | Pexp_try (b, _) -> eval env b
        | _ -> Absdom.bot
      in
      List.fold_left
        (fun acc (c : case) ->
          let env' = { env with vars = bind_tops c.pc_lhs env.vars } in
          let env' =
            match c.pc_guard with Some g -> refine env' g true | None -> env'
          in
          Absdom.join acc (eval env' c.pc_rhs))
        base cases
    | Pexp_assert
        {
          pexp_desc = Pexp_construct ({ txt = Longident.Lident "false"; _ }, None);
          _;
        } ->
      Absdom.bot
    | _ -> Absdom.top_nan)

(* ---------------- whole-program summary fixpoint ---------------- *)

(* After this many fact changes at a node, further growth is widened.
   Small enough to converge fast, large enough that short chains (a let
   refined twice) keep exact bounds. *)
let widen_after = 3

let analyze (project : Project.t) : t =
  let n = Project.n_nodes project in
  let analysis =
    { project; summaries = Array.make n Absdom.bot; converged = true }
  in
  let wcount = Array.make n 0 in
  (* Parameter names of a node's fun chain, without entering the body. *)
  let rec fun_params acc (e : Parsetree.expression) =
    match (Astq.strip e).pexp_desc with
    | Pexp_fun (_, _, pat, body) -> fun_params (Astq.pat_vars pat @ acc) body
    | _ -> acc
  in
  let eval_node gid =
    let file = Project.owner project gid in
    let nd = Project.local project gid in
    let nodes = Callgraph.nodes file.cg in
    (* Bind the lexical context to ⊤∪NaN: parameters of every enclosing
       node, and — for a nonrecursive binding — the node's own name (a
       bare mention in its RHS is an outer shadowed binding, not itself).
       Without this, name-based resolution can capture the node's own
       Bot summary and unsoundly conclude the value is unreachable. *)
    let rec chain_vars vars id =
      if id < 0 then vars
      else
        let anc = nodes.(id) in
        let vars =
          List.fold_left
            (fun m x -> M.add x Absdom.top_nan m)
            vars
            (fun_params [] anc.body)
        in
        chain_vars vars anc.parent
    in
    let vars = chain_vars M.empty nd.parent in
    let vars =
      if nd.recursive then vars else M.add nd.name Absdom.top_nan vars
    in
    let env, body = peel { analysis; file; node = gid; vars } nd.body in
    eval env body
  in
  let transfer gid _incoming =
    let prev = analysis.summaries.(gid) in
    let nv = Absdom.join prev (eval_node gid) in
    let next =
      if wcount.(gid) >= widen_after then Absdom.widen prev nv else nv
    in
    if not (Absdom.equal next prev) then wcount.(gid) <- wcount.(gid) + 1;
    analysis.summaries.(gid) <- next;
    next
  in
  let result =
    Taint.solve ~n
      ~deps:(Project.calls project)
      ~init:(fun _ -> Absdom.bot)
      ~join:Absdom.join ~equal:Absdom.equal ~transfer ()
  in
  (* The solver's facts array and [summaries] agree; keep the latter. *)
  ignore result.Taint.fact;
  { analysis with converged = result.Taint.converged }

(* ---------------- flow-sensitive file traversal for rules -------- *)

let iter_file (analysis : t) (file : Project.file) on_expr =
  let callback env e = on_expr env e in
  (* entering a binding's right-hand side moves [env.node] to its node *)
  let enter_vb env vb =
    match node_at file vb.pvb_pat.ppat_loc with
    | Some nd -> { env with node = Project.global file nd }
    | None -> env
  in
  let rec walk env e =
    callback env e;
    match e.pexp_desc with
    | Pexp_let (rf, vbs, body) ->
      let rhs_env =
        match rf with
        | Asttypes.Recursive ->
          List.fold_left
            (fun en vb -> { en with vars = bind_tops vb.pvb_pat en.vars })
            env vbs
        | Asttypes.Nonrecursive -> env
      in
      List.iter (fun vb -> walk (enter_vb rhs_env vb) vb.pvb_expr) vbs;
      let env' =
        List.fold_left
          (fun en vb ->
            match vb.pvb_pat.ppat_desc with
            | Ppat_var { txt; _ } ->
              (* mirror [eval]'s let case: meet the context-free node
                 summary with a direct evaluation under the refined env *)
              let direct = eval rhs_env vb.pvb_expr in
              let v =
                match node_at env.file vb.pvb_pat.ppat_loc with
                | Some nd ->
                  Absdom.meet
                    analysis.summaries.(Project.global env.file nd)
                    direct
                | None -> direct
              in
              { en with vars = M.add txt v en.vars }
            | _ -> { en with vars = bind_tops vb.pvb_pat en.vars })
          env vbs
      in
      walk env' body
    | Pexp_fun (_, default, pat, body) ->
      Option.iter (walk env) default;
      walk { env with vars = bind_tops pat env.vars } body
    | Pexp_function cases ->
      List.iter
        (fun (c : case) ->
          let env' = { env with vars = bind_tops c.pc_lhs env.vars } in
          Option.iter (walk env') c.pc_guard;
          walk env' c.pc_rhs)
        cases
    | Pexp_match (scrut, cases) | Pexp_try (scrut, cases) ->
      walk env scrut;
      List.iter
        (fun (c : case) ->
          let env' = { env with vars = bind_tops c.pc_lhs env.vars } in
          (match c.pc_guard with
          | Some g ->
            walk env' g;
            walk (refine env' g true) c.pc_rhs
          | None -> walk env' c.pc_rhs))
        cases
    | Pexp_ifthenelse (c, then_, else_) ->
      walk env c;
      walk (refine env c true) then_;
      Option.iter (walk (refine env c false)) else_
    | Pexp_sequence (e1, e2) ->
      walk env e1;
      let env' = match seq_env env e1 with Some en -> en | None -> env in
      walk env' e2
    | Pexp_for (pat, start, stop, _, body) ->
      walk env start;
      walk env stop;
      walk { env with vars = bind_tops pat env.vars } body
    | Pexp_while (c, body) ->
      walk env c;
      walk (refine env c true) body
    | _ ->
      (* generic descent, same environment for every child *)
      let it =
        {
          Ast_iterator.default_iterator with
          expr = (fun _ child -> walk env child);
        }
      in
      Ast_iterator.default_iterator.expr it e
  in
  let top_env = ref { analysis; file; node = -1; vars = M.empty } in
  List.iter
    (fun si ->
      match si.pstr_desc with
      | Pstr_value (rf, vbs) ->
        let rhs_env =
          match rf with
          | Asttypes.Recursive ->
            List.fold_left
              (fun en vb -> { en with vars = bind_tops vb.pvb_pat en.vars })
              !top_env vbs
          | Asttypes.Nonrecursive -> !top_env
        in
        List.iter (fun vb -> walk (enter_vb rhs_env vb) vb.pvb_expr) vbs;
        top_env :=
          List.fold_left
            (fun en vb ->
              match vb.pvb_pat.ppat_desc with
              | Ppat_var { txt; _ } ->
                let v =
                  match node_at file vb.pvb_pat.ppat_loc with
                  | Some nd -> analysis.summaries.(Project.global file nd)
                  | None -> Absdom.top_nan
                in
                { en with vars = M.add txt v en.vars }
              | _ -> { en with vars = bind_tops vb.pvb_pat en.vars })
            !top_env vbs
      | Pstr_eval (e, _) -> walk !top_env e
      | _ -> ())
    file.str
