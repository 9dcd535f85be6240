let all =
  [
    Rule_float_eq.rule;
    Rule_naive_sum.rule;
    Rule_printf_in_lib.rule;
    Rule_missing_mli.rule;
    Rule_catch_all_exn.rule;
    Rule_unsafe_pow.rule;
    Rule_obj_magic.rule;
    Rule_domain_race.rule;
    Rule_dls_misuse.rule;
    Rule_taint_nondet.rule;
    Rule_nan_flow.rule;
    Rule_magic_tolerance.rule;
  ]

let names = List.map (fun (r : Rule.t) -> r.name) all

let select requested =
  List.map
    (fun name ->
      match Rule.find ~name all with
      | Some r -> r
      | None ->
        invalid_arg
          (Fmt.str "unknown rule %s (known: %s)" name
             (String.concat ", " names)))
    requested
