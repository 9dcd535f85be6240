open Parsetree

let rec strip e =
  match e.pexp_desc with
  | Pexp_constraint (e, _) | Pexp_coerce (e, _, _) | Pexp_open (_, e) -> strip e
  | _ -> e

let path e =
  match (strip e).pexp_desc with
  | Pexp_ident { txt; _ } -> (
    match Longident.flatten txt with
    | p -> Some p
    | exception Misc.Fatal_error -> None)
  | _ -> None

let path_is e candidates =
  match path e with Some p -> List.mem p candidates | None -> false

(* [suffix_is e s] matches the last components of a dotted path, so
   [Speedscale.Power.alpha] matches [["Power"; "alpha"]]. *)
let suffix_is e suffixes =
  match path e with
  | None -> false
  | Some p ->
    let n = List.length p in
    List.exists
      (fun s ->
        let k = List.length s in
        k <= n
        && List.equal String.equal s
             (List.filteri (fun i _ -> i >= n - k) p))
      suffixes

let float_const e =
  match (strip e).pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) -> float_of_string_opt s
  | _ -> None

(* A literal numeric constant — float or integer — looking through the
   parser's folded sign and an explicit unary minus. *)
let rec signed_number e =
  let e = strip e in
  match e.pexp_desc with
  | Pexp_constant (Pconst_float (s, _)) | Pexp_constant (Pconst_integer (s, _))
    ->
    float_of_string_opt s
  | Pexp_apply (f, [ (Asttypes.Nolabel, a) ])
    when path_is f [ [ "~-." ]; [ "~-" ] ] ->
    Option.map Float.neg (signed_number a)
  | _ -> None

let is_float_literal e =
  let rec go e =
    match (strip e).pexp_desc with
    | Pexp_constant (Pconst_float _) -> true
    | Pexp_apply (f, [ (Asttypes.Nolabel, a) ])
      when path_is f [ [ "~-." ]; [ "~-" ] ] ->
      go a
    | _ -> false
  in
  go e

let apply_parts e =
  match (strip e).pexp_desc with
  | Pexp_apply (f, args) -> Some (f, List.map snd args)
  | _ -> None

let pat_vars p =
  let acc = ref [] in
  let pat it (p : pattern) =
    (match p.ppat_desc with
     | Ppat_var { txt; _ } -> acc := txt :: !acc
     | Ppat_alias (_, { txt; _ }) -> acc := txt :: !acc
     | _ -> ());
    Ast_iterator.default_iterator.pat it p
  in
  let it = { Ast_iterator.default_iterator with pat } in
  it.pat it p;
  !acc

let iter_expressions str visit =
  let expr it e =
    visit e;
    Ast_iterator.default_iterator.expr it e
  in
  let it = { Ast_iterator.default_iterator with expr } in
  it.structure it str
