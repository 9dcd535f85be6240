let name = "unsafe-pow"

let doc =
  "( ** ) / Float.pow is NaN for a negative base with a non-integral \
   exponent (the P_alpha energy curve); guard the base non-negative, use \
   an integral literal exponent, or suppress with the invariant that makes \
   it safe"

let pow_paths = [ [ "**" ]; [ "Float"; "pow" ]; [ "Stdlib"; "**" ] ]

(* An exponent that cannot produce NaN even for a negative base. *)
let integral_exponent e =
  match Astq.float_const (Astq.strip e) with
  | Some v -> Float.is_integer v
  | None -> (
    match Astq.apply_parts e with
    | Some (f, [ _ ]) -> Astq.path_is f [ [ "float_of_int" ]; [ "Float"; "of_int" ] ]
    | _ -> false)

(* The base is proved non-negative by the abstract interpreter: guards
   and lets, interval facts that flow through local functions and
   cross-module calls, and the [Power] axioms ({!Absint}).  When the
   summary fixpoint did not converge no base counts as proved — a
   finding may never silently vanish behind an exhausted iteration
   bound. *)
let check_project (a : Absint.t) =
  let acc = ref [] in
  Array.iter
    (fun (file : Project.file) ->
      Absint.iter_file a file (fun env e ->
          match Astq.apply_parts e with
          | Some (f, [ base; expo ])
            when Astq.path_is f pow_paths
                 && not
                      (integral_exponent expo
                      || Absint.converged a
                         && Absdom.nonneg (Absint.eval env base)) ->
            acc :=
              Finding.of_location ~rule:name ~severity:Finding.Error
                ~message:doc e.pexp_loc
              :: !acc
          | _ -> ()))
    (Project.files (Absint.project a));
  List.rev !acc

let example =
  "let energy s alpha = s ** alpha\n\
   (* fires: nothing proves s non-negative.  Quiet when an if/guard, a \
   non-negative producer (sqrt, Float.abs, Power.alpha), or a summary \
   from another module bounds s below by 0. *)"

let rule = Rule.make ~doc ~severity:Finding.Error ~check_project ~example name
