(* Fixture-driven tests for the speedscale_lint engine: every rule firing
   and not firing, and suppression handling. *)

open Speedscale_lint

(* Directive text assembled by concatenation so slint does not read these
   fixtures as directives for THIS file when scanning the tree. *)
let allow rule reason = "(* slint: " ^ "allow " ^ rule ^ " -- " ^ reason ^ " *)"

let rules_of name = Registry.select [ name ]

let findings ?(rel = "lib/model/fixture.ml") ?(has_mli = true) ~rule text =
  Engine.check_source ~has_mli ~rules:(rules_of rule) ~rel text
  |> List.filter (fun (f : Finding.t) -> String.equal f.rule rule)

let check_fires name ?rel ?has_mli ~rule text =
  Alcotest.(check bool)
    (name ^ ": fires") true
    (findings ?rel ?has_mli ~rule text <> [])

let check_quiet name ?rel ?has_mli ~rule text =
  let hits = findings ?rel ?has_mli ~rule text in
  Alcotest.(check int) (name ^ ": quiet") 0 (List.length hits)

(* ---------------- float-eq ---------------- *)

let test_float_eq () =
  let rule = "float-eq" in
  check_fires "literal rhs" ~rule "let f x = x = 1.0";
  check_fires "float op" ~rule "let f a b = a +. 1.0 = b";
  check_fires "infinity" ~rule "let f v = v = Float.infinity";
  check_fires "compare" ~rule "let f x = compare x 0.5";
  check_fires "physical" ~rule "let f x = x == 0.0";
  check_fires "not-equal" ~rule "let f x = x <> sqrt 2.0";
  check_quiet "int compare" ~rule "let f x = x = 1";
  check_quiet "Float.equal" ~rule "let f x = Float.equal x 1.0";
  check_quiet "string" ~rule {|let f s = s = "inf"|};
  (* the compare-with-0 idiom on float operands *)
  check_fires "compare = 0" ~rule "let f x = compare x 1.0 = 0";
  check_fires "0 = compare" ~rule "let f x = 0 = compare 1.0 x";
  check_fires "compare <> 0" ~rule "let f x = compare x 1.0 <> 0";
  check_quiet "int compare = 0" ~rule "let f x y = compare (x : int) y = 0";
  (* the idiom is one finding, not one for the inner compare too *)
  Alcotest.(check int)
    "compare = 0 reported once" 1
    (List.length (findings ~rule "let f x = compare x 1.0 = 0"));
  (* equality hidden inside a container scan: the operands of [=] look
     type-neutral but the scanned container holds floats *)
  check_fires "exists over float array" ~rule
    "let f b = Array.exists (fun x -> x = b) [| 1.0; 2.0 |]";
  check_fires "for_all flipped operands" ~rule
    "let f b = Array.for_all (fun x -> b <> x) [| 0.5 |]";
  check_fires "exists over Array.make" ~rule
    "let f b n = Array.exists (fun x -> x = b) (Array.make n 0.0)";
  check_fires "exists over Array.init" ~rule
    "let f b n = Array.exists (fun x -> x = b) (Array.init n float_of_int)";
  check_fires "mem with float needle" ~rule "let f a = Array.mem 1.0 a";
  check_fires "mem over float list" ~rule
    "let f b = List.mem b [ 1.0; 2.0 ]";
  check_quiet "exists over int array" ~rule
    "let f b = Array.exists (fun x -> x = b) [| 1; 2 |]";
  check_quiet "predicate without the param" ~rule
    "let f b c = Array.exists (fun _ -> b = c) [| 1.0 |]";
  check_quiet "Float.equal predicate" ~rule
    "let f b = Array.exists (fun x -> Float.equal x b) [| 1.0 |]";
  (* the hidden form is one finding, not one for the inner [=] too *)
  Alcotest.(check int)
    "scan reported once" 1
    (List.length
       (findings ~rule "let f b = Array.exists (fun x -> x = 1.0) [| 2.0 |]"))

(* ---------------- naive-sum ---------------- *)

let test_naive_sum () =
  let rule = "naive-sum" in
  check_fires "operator" ~rule "let f l = List.fold_left ( +. ) 0.0 l";
  check_fires "eta" ~rule "let f a = Array.fold_left (fun acc x -> acc +. x) 0.0 a";
  check_fires "projection" ~rule
    "let f l = List.fold_left (fun acc j -> acc +. j.value) 0.0 l";
  check_quiet "outside lib" ~rel:"bench/fixture.ml" ~rule
    "let f l = List.fold_left ( +. ) 0.0 l";
  check_quiet "int fold" ~rule "let f l = List.fold_left ( + ) 0 l";
  check_quiet "max fold" ~rule "let f l = List.fold_left Float.max 0.0 l"

(* ---------------- nondeterminism ---------------- *)

(* Global-Random call sites, reported by taint-nondet wherever they
   appear, whether or not the value reaches a payload. *)
let test_nondeterminism () =
  let rule = "taint-nondet" in
  check_fires "Random.float" ~rule "let f () = Random.float 1.0";
  check_fires "Random.self_init" ~rule "let f () = Random.self_init ()";
  check_fires "Random in an optional default of a closure argument" ~rule
    "let f l = List.map (fun ?(k = Random.int 3) x -> x + k) l";
  check_quiet "Random.State" ~rule "let f st = Random.State.float st 1.0";
  check_quiet "unrelated" ~rule "let f x = x + 1"

(* ---------------- printf-in-lib ---------------- *)

let test_printf_in_lib () =
  let rule = "printf-in-lib" in
  check_fires "Printf.printf" ~rule {|let f () = Printf.printf "x"|};
  check_fires "Printf.sprintf" ~rule {|let f n = Printf.sprintf "%d" n|};
  check_fires "print_endline" ~rule {|let f () = print_endline "x"|};
  check_fires "Format.printf" ~rule {|let f () = Format.printf "x"|};
  check_quiet "outside lib" ~rel:"bin/fixture.ml" ~rule
    {|let f () = Printf.printf "x"|};
  check_quiet "Fmt.str" ~rule {|let f n = Fmt.str "%d" n|};
  check_quiet "Format.fprintf" ~rule {|let pp ppf n = Format.fprintf ppf "%d" n|}

(* ---------------- missing-mli ---------------- *)

let test_missing_mli () =
  let rule = "missing-mli" in
  check_fires "no mli" ~has_mli:false ~rule "let x = 1";
  check_quiet "has mli" ~has_mli:true ~rule "let x = 1";
  check_quiet "outside lib" ~rel:"bench/fixture.ml" ~has_mli:false ~rule
    "let x = 1"

(* ---------------- catch-all-exn ---------------- *)

let test_catch_all_exn () =
  let rule = "catch-all-exn" in
  check_fires "try wildcard" ~rule "let f g = try g () with _ -> 0";
  check_fires "match exception _" ~rule
    "let f g = match g () with x -> x | exception _ -> 0";
  check_quiet "named exn" ~rule "let f g = try g () with Not_found -> 0";
  check_quiet "guarded wildcard" ~rule
    "let f g p = try g () with _ when p -> 0"

(* ---------------- unsafe-pow ---------------- *)

let test_unsafe_pow () =
  let rule = "unsafe-pow" in
  check_fires "unknown base" ~rule "let f x a = x ** (1.0 /. a)";
  check_fires "unguarded arg" ~rule "let f s alpha = s ** alpha";
  check_quiet "integral exponent" ~rule "let f x = x ** 2.0";
  check_quiet "float_of_int exponent" ~rule "let f x n = x ** float_of_int n";
  check_quiet "literal base" ~rule "let f a = 2.0 ** a";
  check_quiet "guarded branch" ~rule
    "let f s a = if s >= 0.0 then s ** a else 0.0";
  check_quiet "guard-raise sequence" ~rule
    {|let f s a = if s < 0.0 then invalid_arg "s"; s ** a|};
  check_quiet "nonneg let" ~rule "let f x a = let y = Float.abs x in y ** a";
  check_fires "rebound variable" ~rule
    {|let f s a = if s < 0.0 then invalid_arg "s"; let s = s -. 2.0 in s ** a|};
  check_quiet "alpha producer" ~rule "let f p a = Power.alpha p ** a";
  check_quiet "sqrt base" ~rule "let f x a = sqrt x ** a";
  (* Float.pow is the same partial function as ( ** ) *)
  check_fires "Float.pow unknown base" ~rule "let f s a = Float.pow s a";
  check_quiet "Float.pow guarded" ~rule
    "let f s a = if s >= 0.0 then Float.pow s a else 0.0";
  check_quiet "Float.pow integral exponent" ~rule "let f x = Float.pow x 2.0"

(* ---------------- obj-magic ---------------- *)

let test_obj_magic () =
  let rule = "obj-magic" in
  check_fires "Obj.magic" ~rule "let f x = (Obj.magic x : int)";
  check_fires "assert false" ~rule "let f () = assert false";
  check_quiet "assert cond" ~rule "let f x = assert (x > 0)";
  check_quiet "plain code" ~rule "let f x = x + 1"

(* ---------------- domain-race ---------------- *)

let test_domain_race () =
  let rule = "domain-race" in
  (* the seeded regression: a mutable capture in a spawned closure *)
  check_fires "ref captured by spawned closure" ~rule
    {|let total = ref 0
let add x = total := !total + x
let go xs = Domain.spawn (fun () -> List.iter add xs)|};
  check_fires "incr two calls below the spawn" ~rule
    {|let hits = ref 0
let bump () = incr hits
let work () = bump ()
let go () = Domain.spawn (fun () -> work ())|};
  check_fires "named worker root" ~rule
    {|let flag = ref false
let worker () = flag := true
let go () = Domain.spawn worker|};
  check_fires "Runner.map closure" ~rule
    {|let hits = ref 0
let f xs = Runner.map (fun x -> incr hits; x) xs|};
  check_fires "hashtbl mutation" ~rule
    {|let cache = Hashtbl.create 8
let go () = Domain.spawn (fun () -> Hashtbl.replace cache 1 2)|};
  check_fires "bare deref read" ~rule
    {|let total = ref 0
let go () = Domain.spawn (fun () -> !total + 1)|};
  check_quiet "atomic is exempt" ~rule
    {|let total = Atomic.make 0
let go () = Domain.spawn (fun () -> Atomic.incr total)|};
  check_quiet "mutex mediation" ~rule
    {|let m = Mutex.create ()
let total = ref 0
let add x = Mutex.lock m; total := !total + x; Mutex.unlock m
let go xs = Domain.spawn (fun () -> List.iter add xs)|};
  check_quiet "state local to the closure" ~rule
    {|let go () = Domain.spawn (fun () -> let c = ref 0 in c := 1; !c)|};
  check_quiet "state local to a named root" ~rule
    {|let worker () = let c = ref 0 in incr c; !c
let go () = Domain.spawn worker|};
  check_quiet "data argument is not a root" ~rule
    {|let tally = ref 0
let build () = tally := 1; [ 1; 2 ]
let xs = build ()
let go f = Runner.map f xs|};
  check_quiet "no spawn at all" ~rule
    {|let total = ref 0
let add x = total := !total + x|}

(* ---------------- dls-misuse ---------------- *)

let test_dls_misuse () =
  let rule = "dls-misuse" in
  check_fires "key created inside a function" ~rule
    "let f () = Domain.DLS.new_key (fun () -> 0)";
  check_fires "key created inside a spawned closure" ~rule
    "let go () = Domain.spawn (fun () -> Domain.DLS.new_key (fun () -> 0))";
  check_fires "get before set" ~rule
    {|let k = Domain.DLS.new_key (fun () -> 0)
let f v = let old = Domain.DLS.get k in Domain.DLS.set k v; old|};
  check_quiet "toplevel key" ~rule
    "let k = Domain.DLS.new_key (fun () -> 0)";
  check_quiet "set before get" ~rule
    {|let k = Domain.DLS.new_key (fun () -> 0)
let f v = Domain.DLS.set k v; Domain.DLS.get k|};
  check_quiet "get without any set" ~rule
    {|let k = Domain.DLS.new_key (fun () -> 0)
let f () = Domain.DLS.get k|}

(* ---------------- taint-nondet ---------------- *)

let test_taint_nondet () =
  let rule = "taint-nondet" in
  (* the seeded regression: a Random call two levels below the function
     building the record payload.  The Random site itself is reported on
     line 1 too, so the check pins the payload finding on line 4. *)
  Alcotest.(check bool)
    "random two calls below the payload: fires" true
    (List.exists
       (fun (f : Finding.t) ->
         f.line = 4
         && String.starts_with
              ~prefix:"nondeterministic value flows into an obs record payload"
              f.message)
       (findings ~rule
          {|let noise () = Random.float 1.0
let jitter () = noise () +. 1.0
let payload () =
  Record.make ~id:"x" ~metrics:[ ("m", jitter ()) ] Experiment|}));
  check_fires "clock through a local binding" ~rule
    {|let f () = let d = Unix.gettimeofday () in metric "t" d|};
  check_fires "hashtbl order through a closure parameter" ~rule
    {|let rows tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
let emit tbl = List.iter (fun (name, v) -> counter name v) (rows tbl)|};
  check_fires "direct source in the sink argument" ~rule
    "let f () = verdict (Sys.time () > 0.0)";
  check_quiet "untainted payload" ~rule
    {|let payload v = Record.make ~id:"x" ~metrics:[ ("m", v) ] Experiment|};
  check_quiet "taint that never reaches the sink" ~rule
    {|let noise () = Sys.time ()
let f () = let _ = noise () in metric "t" 1.0|};
  check_quiet "Random.State is deterministic" ~rule
    {|let f st = metric "t" (Random.State.float st 1.0)|};
  check_quiet "untainted rebinding shadows the taint" ~rule
    {|let f () =
  let d = Unix.gettimeofday () in
  let d = 1.0 in
  metric "t" (d +. 0.0)|}

(* ---------------- taint solver ---------------- *)

(* The fixpoint the solver must reach for boolean reachability facts:
   [fact v] iff some node reachable from [v] along [deps] satisfies
   [init] — computed here independently with a DFS. *)
let expected_reachability ~n ~deps ~init v =
  let visited = Array.make n false in
  let rec go u =
    if not visited.(u) then begin
      visited.(u) <- true;
      List.iter go (deps u)
    end
  in
  go v;
  List.exists (fun u -> visited.(u) && init u) (List.init n Fun.id)

let solver_arbitrary =
  QCheck.(pair (int_range 1 25) (small_list (pair small_nat small_nat)))

let test_solver_terminates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"solver terminates and reaches the least fixpoint on random graphs"
       solver_arbitrary
       (fun (n, raw_edges) ->
         (* arbitrary edges modulo n: self-loops and mutual recursion
            included by construction *)
         let edges = List.map (fun (a, b) -> (a mod n, b mod n)) raw_edges in
         let deps v =
           List.filter_map (fun (a, b) -> if a = v then Some b else None) edges
         in
         let init v = v mod 3 = 0 in
         let r =
           Taint.solve ~n ~deps ~init ~join:( || ) ~equal:Bool.equal ()
         in
         r.Taint.converged
         && List.for_all
              (fun v ->
                Bool.equal (r.Taint.fact v)
                  (expected_reachability ~n ~deps ~init v))
              (List.init n Fun.id)))

let test_solver_bound () =
  (* a hostile transfer function that never stabilises must still stop at
     the bound, reporting non-convergence rather than hanging *)
  let r =
    Taint.solve ~n:2
      ~deps:(fun v -> [ 1 - v ])
      ~init:(fun _ -> 0)
      ~join:max ~equal:Int.equal
      ~transfer:(fun _ f -> f + 1)
      ()
  in
  Alcotest.(check bool) "did not converge" false r.Taint.converged

(* ---------------- SARIF golden ---------------- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let sarif_fixture_findings =
  [
    Finding.v ~line:3 ~col:4 ~file:"lib/model/power.ml" ~rule:"float-eq"
      ~severity:Finding.Error {|polymorphic = on a "float" expression|};
    Finding.v ~file:"lib/obs/runner.ml" ~rule:"domain-race"
      ~severity:Finding.Warning "whole-file finding without a region";
  ]

let test_sarif_golden () =
  let rules = Registry.select [ "float-eq"; "domain-race" ] in
  let got =
    Format.asprintf "%a" (Report.pp_sarif ~rules) sarif_fixture_findings
  in
  let path =
    if Sys.file_exists "slint_golden.sarif" then "slint_golden.sarif"
    else "test/slint_golden.sarif"
  in
  Alcotest.(check string) "sarif golden bytes" (read_file path) got

(* ---------------- suppression handling ---------------- *)

let test_suppression () =
  let rule = "float-eq" in
  (* end-of-line directive silences that line's finding *)
  check_quiet "same line" ~rule
    ("let f x = x = 1.0  " ^ allow "float-eq" "fixture");
  (* directive-only line governs the next code line *)
  check_quiet "next line" ~rule
    (allow "float-eq" "fixture" ^ "\nlet f x = x = 1.0");
  (* a directive for a different rule does not apply *)
  check_fires "wrong rule" ~rule
    ("let f x = x = 1.0  " ^ allow "unsafe-pow" "fixture");
  (* the line after the governed one is not covered *)
  check_fires "only one line" ~rule
    (allow "float-eq" "fixture" ^ "\nlet f x = x = 1.0\nlet g x = x = 2.0");
  (* file-level findings accept a directive anywhere *)
  check_quiet "file-level" ~rel:"lib/model/fixture.ml" ~has_mli:false
    ~rule:"missing-mli"
    ("let x = 1\n" ^ allow "missing-mli" "fixture")

let test_suppression_diagnostics () =
  let all f rule =
    List.filter (fun (g : Finding.t) -> String.equal g.rule rule) f
  in
  (* missing reason -> suppress-syntax error *)
  let f =
    Engine.check_source ~rules:Registry.all ~rel:"lib/model/fixture.ml"
      ("let f x = x = 1.0  (* slint: " ^ "allow float-eq *)")
  in
  Alcotest.(check int) "missing reason" 1 (List.length (all f "suppress-syntax"));
  (* a malformed directive suppresses nothing *)
  Alcotest.(check int) "still reported" 1 (List.length (all f "float-eq"));
  (* directive matching no finding -> unused-suppression error *)
  let f =
    Engine.check_source ~rules:Registry.all ~rel:"lib/model/fixture.ml"
      ("let f x = x + 1  " ^ allow "float-eq" "fixture")
  in
  let unused = all f "unused-suppression" in
  Alcotest.(check int) "unused" 1 (List.length unused);
  Alcotest.(check bool)
    "unused is an error" true
    (match unused with
    | [ u ] -> u.severity = Finding.Error
    | _ -> false);
  (* a directive for a rule outside the scan cannot have matched *)
  let f =
    Engine.check_source ~rules:(rules_of "naive-sum")
      ~rel:"lib/model/fixture.ml"
      ("let f x = x + 1  " ^ allow "float-eq" "fixture")
  in
  Alcotest.(check int)
    "rule that did not run" 0
    (List.length (all f "unused-suppression"));
  (* a directive naming no rule -> suppress-syntax error *)
  let f =
    Engine.check_source ~rules:Registry.all ~rel:"lib/model/fixture.ml"
      ("let f x = x + 1  " ^ allow "no-such-rule" "fixture")
  in
  Alcotest.(check int) "unknown rule" 1 (List.length (all f "suppress-syntax"))

(* ---------------- parse errors ---------------- *)

let test_parse_error () =
  let f =
    Engine.check_source ~rules:Registry.all ~rel:"lib/model/fixture.ml"
      "let f x = ("
  in
  Alcotest.(check bool)
    "syntax error reported" true
    (List.exists (fun (g : Finding.t) -> String.equal g.rule "parse-error") f)

(* ---------------- interval domain soundness ---------------- *)

(* The qcheck-pinned property from absdom.mli: whenever the inputs are in
   the concretisation of the abstract inputs, the concrete result is in
   the concretisation of the abstract result — over randomly generated
   arithmetic expressions including every IEEE special value. *)

type aexp =
  | Const of float
  | Var of int
  | Neg of aexp
  | Add of aexp * aexp
  | Sub of aexp * aexp
  | Mul of aexp * aexp
  | Div of aexp * aexp
  | Min of aexp * aexp
  | Max of aexp * aexp
  | Abs of aexp
  | Sqrt of aexp
  | Exp of aexp
  | Log of aexp
  | Pow of aexp * aexp

let rec ceval env = function
  | Const c -> c
  | Var i -> env.(i)
  | Neg e -> -.ceval env e
  | Add (a, b) -> ceval env a +. ceval env b
  | Sub (a, b) -> ceval env a -. ceval env b
  | Mul (a, b) -> ceval env a *. ceval env b
  | Div (a, b) -> ceval env a /. ceval env b
  | Min (a, b) -> Stdlib.min (ceval env a) (ceval env b)
  | Max (a, b) -> Stdlib.max (ceval env a) (ceval env b)
  | Abs e -> Float.abs (ceval env e)
  | Sqrt e -> sqrt (ceval env e)
  | Exp e -> exp (ceval env e)
  | Log e -> log (ceval env e)
  | Pow (a, b) ->
    (* slint: allow unsafe-pow -- the concrete oracle must exercise the negative-base corner the domain models *)
    ceval env a ** ceval env b

let rec aeval env = function
  | Const c -> Absdom.const c
  | Var i -> env.(i)
  | Neg e -> Absdom.neg (aeval env e)
  | Add (a, b) -> Absdom.add (aeval env a) (aeval env b)
  | Sub (a, b) -> Absdom.sub (aeval env a) (aeval env b)
  | Mul (a, b) -> Absdom.mul (aeval env a) (aeval env b)
  | Div (a, b) -> Absdom.div (aeval env a) (aeval env b)
  | Min (a, b) -> Absdom.fmin (aeval env a) (aeval env b)
  | Max (a, b) -> Absdom.fmax (aeval env a) (aeval env b)
  | Abs e -> Absdom.abs_ (aeval env e)
  | Sqrt e -> Absdom.sqrt_ (aeval env e)
  | Exp e -> Absdom.exp_ (aeval env e)
  | Log e -> Absdom.log_ (aeval env e)
  | Pow (a, b) -> Absdom.pow (aeval env a) (aeval env b)

let special_floats =
  [
    0.0; -0.0; 1.0; -1.0; 0.5; -2.5; Float.pi; 1e300; -1e300; 1e-300;
    infinity; neg_infinity; nan; Float.max_float; Float.min_float;
  ]

let gen_aexp =
  let open QCheck.Gen in
  let leaf =
    oneof
      [
        map (fun c -> Const c) (oneofl special_floats);
        map (fun c -> Const c) float;
        map (fun i -> Var i) (int_bound 1);
      ]
  in
  sized
    (fix (fun self n ->
         if n <= 0 then leaf
         else
           let sub = self (n / 2) in
           oneof
             [
               leaf;
               map (fun e -> Neg e) sub;
               map2 (fun a b -> Add (a, b)) sub sub;
               map2 (fun a b -> Sub (a, b)) sub sub;
               map2 (fun a b -> Mul (a, b)) sub sub;
               map2 (fun a b -> Div (a, b)) sub sub;
               map2 (fun a b -> Min (a, b)) sub sub;
               map2 (fun a b -> Max (a, b)) sub sub;
               map (fun e -> Abs e) sub;
               map (fun e -> Sqrt e) sub;
               map (fun e -> Exp e) sub;
               map (fun e -> Log e) sub;
               map2 (fun a b -> Pow (a, b)) sub sub;
             ]))

(* An abstract input that provably contains the concrete input: exact,
   unknown, or a widened interval around it. *)
let absvar x mode =
  match mode mod 3 with
  | 0 -> Absdom.const x
  | 1 -> Absdom.top_nan
  | _ -> Absdom.join (Absdom.const x) (Absdom.const 2.0)

let rec pp_aexp ppf = function
  | Const c -> Fmt.pf ppf "%h" c
  | Var i -> Fmt.pf ppf "x%d" i
  | Neg e -> Fmt.pf ppf "(- %a)" pp_aexp e
  | Add (a, b) -> Fmt.pf ppf "(%a + %a)" pp_aexp a pp_aexp b
  | Sub (a, b) -> Fmt.pf ppf "(%a - %a)" pp_aexp a pp_aexp b
  | Mul (a, b) -> Fmt.pf ppf "(%a * %a)" pp_aexp a pp_aexp b
  | Div (a, b) -> Fmt.pf ppf "(%a / %a)" pp_aexp a pp_aexp b
  | Min (a, b) -> Fmt.pf ppf "(min %a %a)" pp_aexp a pp_aexp b
  | Max (a, b) -> Fmt.pf ppf "(max %a %a)" pp_aexp a pp_aexp b
  | Abs e -> Fmt.pf ppf "(abs %a)" pp_aexp e
  | Sqrt e -> Fmt.pf ppf "(sqrt %a)" pp_aexp e
  | Exp e -> Fmt.pf ppf "(exp %a)" pp_aexp e
  | Log e -> Fmt.pf ppf "(log %a)" pp_aexp e
  | Pow (a, b) -> Fmt.pf ppf "(%a ** %a)" pp_aexp a pp_aexp b

let soundness_arbitrary =
  QCheck.make
    ~print:(fun (e, (x0, x1), (m0, m1)) ->
      Fmt.str "%a with x0=%h (mode %d), x1=%h (mode %d)" pp_aexp e x0 m0 x1
        m1)
    QCheck.Gen.(
      tup3 gen_aexp
        (tup2 (oneofl special_floats) (oneofl special_floats))
        (tup2 (int_bound 2) (int_bound 2)))

let test_absdom_soundness =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:2000
       ~name:"abstract evaluation over-approximates concrete evaluation"
       soundness_arbitrary
       (fun (e, (x0, x1), (m0, m1)) ->
         let conc = ceval [| x0; x1 |] e in
         let abst = aeval [| absvar x0 m0; absvar x1 m1 |] e in
         Absdom.mem conc abst))

let test_absdom_basics () =
  let open Absdom in
  Alcotest.(check bool) "const mem" true (mem 1.5 (const 1.5));
  Alcotest.(check bool) "nan in nan_only" true (mem nan nan_only);
  Alcotest.(check bool) "nan not in top" false (mem nan top);
  Alcotest.(check bool) "bot empty" false (mem 0.0 bot);
  Alcotest.(check bool) "join order" true (leq (const 1.0) (interval 0.0 2.0));
  Alcotest.(check bool)
    "meet refines" true
    (equal (interval 1.0 2.0) (meet (interval 0.0 2.0) (interval 1.0 3.0)));
  Alcotest.(check bool)
    "widen escapes" true
    (equal
       (interval 0.0 infinity)
       (widen (interval 0.0 1.0) (interval 0.0 2.0)));
  Alcotest.(check bool)
    "widen keeps stable bound" true
    (match widen (interval 0.0 1.0) (interval 0.0 2.0) with
    | V { lo; _ } -> Float.equal lo 0.0
    | Bot -> false);
  Alcotest.(check bool) "nonneg" true (nonneg (interval 0.0 5.0));
  Alcotest.(check bool) "not nonneg" false (nonneg (interval (-1.0) 5.0))

(* Widening termination: any increasing iteration through [widen]
   stabilises.  Checked end to end — random mutually recursive float
   programs are parsed, summarised and must converge. *)

let gen_loopy_source =
  let open QCheck.Gen in
  let body k =
    oneofl
      [
        (fun j -> Fmt.str "if x > 0.0 then 1.0 +. f%d (x -. 1.0) else 0.0" j);
        (fun j -> Fmt.str "if x < 10.0 then f%d (x +. 1.0) *. 2.0 else x" j);
        (fun j -> Fmt.str "0.5 +. f%d x" j);
        (fun j -> Fmt.str "if x > 5.0 then x else f%d (x *. 2.0) -. 1.0" j);
        (fun j -> Fmt.str "Float.max 0.0 (f%d (x -. 0.5))" j);
      ]
    >>= fun mk ->
    map mk (int_bound (k - 1))
  in
  int_range 1 5 >>= fun k ->
  flatten_l (List.init k (fun _ -> body k)) >|= fun bodies ->
  String.concat "\nand "
    (List.mapi (fun i b -> Fmt.str "f%d x = %s" i b) bodies)
  |> Fmt.str "let rec %s"

let analyze_source ?(rel = "lib/gen/loopy.ml") text =
  match Engine.parse_structure ~rel text with
  | Error f -> Alcotest.failf "fixture does not parse: %s" f.Finding.message
  | Ok str ->
    let project = Project.build [ { Project.rel; str; exported = None } ] in
    (project, Absint.analyze project)

let test_widening_terminates =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:150
       ~name:"summary fixpoint converges on random loopy call graphs"
       (QCheck.make ~print:Fun.id gen_loopy_source)
       (fun src ->
         let _, a = analyze_source src in
         Absint.converged a))

let test_widening_good_case () =
  (* the canonical widening case: an unbounded increasing recursion must
     converge to a summary with an infinite upper bound and a stable
     non-negative lower bound *)
  let project, a =
    analyze_source
      "let rec f x = if x > 0.0 then 1.0 +. f (x -. 1.0) else 0.0"
  in
  Alcotest.(check bool) "converged" true (Absint.converged a);
  let file = (Project.files project).(0) in
  match Project.toplevel_value file "f" with
  | None -> Alcotest.fail "node f not found"
  | Some gid ->
    Alcotest.(check bool)
      "summary is non-negative" true
      (Absdom.nonneg (Absint.summary a gid));
    Alcotest.(check bool)
      "upper bound widened to +inf" true
      (match Absint.summary a gid with
      | Absdom.V { hi; _ } -> Float.equal hi infinity
      | Absdom.Bot -> false)

(* ---------------- whole-program fixtures ---------------- *)

let msrc rel text = { Engine.rel; text; mli = None }

let project_findings ~rule sources =
  Engine.check_sources ~rules:(Registry.select [ rule ]) sources
  |> List.filter (fun (f : Finding.t) -> String.equal f.rule rule)

let check_project_fires name ~rule sources =
  Alcotest.(check bool)
    (name ^ ": fires") true
    (project_findings ~rule sources <> [])

let check_project_quiet name ~rule sources =
  Alcotest.(check int)
    (name ^ ": quiet") 0
    (List.length (project_findings ~rule sources))

let test_cross_module_unsafe_pow () =
  let rule = "unsafe-pow" in
  (* the acceptance chain lib/workload -> lib/core -> lib/chen: the
     non-negativity proof of the pow base lives two modules away, so the
     finding disappears exactly when the producer is in the scan *)
  let producer = msrc "lib/chen/chen.ml" "let mass x = Float.abs x" in
  let chain =
    [
      msrc "lib/core/core.ml" "let boost v = Chen.mass v +. 1.0";
      msrc "lib/workload/workload.ml"
        "let energy v a = Core.boost v ** a";
    ]
  in
  check_project_quiet "cross-module proof" ~rule (producer :: chain);
  check_project_fires "proof unreachable without cross-module" ~rule chain;
  (* qualified toplevel constant *)
  let params = msrc "lib/model/params.ml" "let scale = 4.0" in
  let const_chain = [ msrc "lib/core/core.ml" "let f a = Params.scale ** a" ] in
  check_project_quiet "toplevel constant" ~rule (params :: const_chain);
  check_project_fires "constant invisible without cross-module" ~rule
    const_chain;
  (* module alias *)
  check_project_quiet "module alias" ~rule
    [
      msrc "lib/chen/chen.ml" "let mass x = Float.abs x";
      msrc "lib/core/core.ml"
        "module C = Chen\nlet f a = C.mass 3.0 ** a";
    ];
  (* toplevel open *)
  check_project_quiet "open route" ~rule
    [
      msrc "lib/chen/chen.ml" "let mass x = Float.abs x";
      msrc "lib/core/core.ml" "open Chen\nlet f a = mass 2.0 ** a";
    ];
  (* an .mli restricts visibility: the producer is not exported, so the
     qualified call cannot be resolved and nothing proves the base *)
  check_project_fires "mli hides the producer" ~rule
    [
      { Engine.rel = "lib/chen/chen.ml";
        text = "let mass x = Float.abs x";
        mli = Some "" };
      msrc "lib/core/core.ml" "let f a = Chen.mass 3.0 ** a";
    ];
  (* homonymous modules are ambiguous and never resolve *)
  check_project_fires "ambiguous module" ~rule
    [
      msrc "lib/chen/helper.ml" "let mass x = Float.abs x";
      msrc "lib/model/helper.ml" "let mass x = x -. 1.0";
      msrc "lib/core/core.ml" "let f a = Helper.mass 3.0 ** a";
    ];
  (* a possibly-negative producer in another module keeps firing *)
  check_project_fires "negative producer" ~rule
    [
      msrc "lib/chen/chen.ml" "let shift x = Float.abs x -. 2.0";
      msrc "lib/core/core.ml" "let f a = Chen.shift 1.0 ** a";
    ];
  (* one analysis scope: a bench/ base is proved by a lib/ producer *)
  let bench = [ msrc "bench/energy.ml" "let energy v a = Chen.mass v ** a" ] in
  check_project_quiet "bench base proved by lib" ~rule (producer :: bench);
  check_project_fires "bench base without the lib producer" ~rule bench

let test_cross_module_nan_flow () =
  let rule = "nan-flow" in
  (* acceptance chain: the 0/0 evidence is manufactured in lib/core from
     lib/chen values and reaches a payload in lib/workload — only the
     whole-program path can see it *)
  let producer =
    msrc "lib/chen/chen.ml"
      "let unit_load x = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x"
  in
  let core =
    msrc "lib/core/core.ml"
      "let efficiency a b = Chen.unit_load a /. Chen.unit_load b"
  in
  let chain =
    [
      core;
      msrc "lib/workload/workload.ml"
        {|let report a b = Record.make (Core.efficiency a b)|};
    ]
  in
  check_project_fires "cross-module 0/0 into payload" ~rule (producer :: chain);
  check_project_quiet "taint needs cross-module" ~rule chain;
  (* one analysis scope: a bench/ verdict sees the lib/ 0/0 *)
  check_project_fires "bench verdict fed a cross-module 0/0" ~rule
    [
      producer;
      core;
      msrc "bench/report.ml"
        "let check a b = verdict (Core.efficiency a b)";
    ];
  (* direct creator in the sink argument *)
  check_project_fires "direct 0/0 at the sink" ~rule
    [
      msrc "lib/core/core.ml"
        {|let f x = let r = if x < 0.0 then 0.0 else if x > 1.0 then 1.0 else x in metric "m" (r /. r)|};
    ];
  (* log of a value refined negative by the dominating branch *)
  check_project_fires "log of possibly-negative" ~rule
    [
      msrc "lib/core/core.ml"
        "let g x = if x < 0.0 then verdict (log x > 0.0) else ()";
    ];
  (* a denominator bounded away from zero is quiet *)
  check_project_quiet "guarded denominator" ~rule
    [
      msrc "lib/core/core.ml"
        {|let f x = if x > 1.0 then metric "m" (1.0 /. x) else ()|};
    ];
  (* sqrt of a cross-module non-negative producer is quiet *)
  check_project_quiet "sqrt of nonneg producer" ~rule
    [
      msrc "lib/chen/chen.ml" "let mass x = Float.abs x";
      msrc "lib/core/core.ml" {|let f x = metric "m" (sqrt (Chen.mass x))|};
    ];
  (* an unconstrained division is not evidence *)
  check_project_quiet "top operands are not evidence" ~rule
    [ msrc "lib/core/core.ml" {|let f a b = metric "m" (a /. b)|} ];
  (* taint that never reaches a sink is quiet *)
  check_project_quiet "creator without a sink" ~rule
    [
      msrc "lib/core/core.ml"
        "let f x = let r = if x < 0.0 then 0.0 else x in r /. r";
    ]

let test_cross_module_domain_race () =
  let rule = "domain-race" in
  let counters = msrc "lib/core/counters.ml" "let hits = ref 0" in
  (* qualified write from a spawned closure: state lives in lib/core,
     the spawn in lib/workload *)
  let write =
    [
      msrc "lib/workload/worker.ml"
        "let run () = Domain.spawn (fun () -> Counters.hits := 1)";
    ]
  in
  check_project_fires "qualified write under spawn" ~rule (counters :: write);
  check_project_quiet "foreign state invisible without cross-module" ~rule
    write;
  check_project_fires "qualified deref read" ~rule
    [
      counters;
      msrc "lib/workload/worker.ml"
        "let peek () = Domain.spawn (fun () -> !Counters.hits)";
    ];
  (* the access is one call below the spawned closure *)
  check_project_fires "access through a local helper" ~rule
    [
      counters;
      msrc "lib/workload/worker.ml"
        "let bump () = Counters.hits := 1\n\
         let run () = Domain.spawn (fun () -> bump ())";
    ];
  (* the spawned root is itself a foreign function *)
  check_project_fires "qualified spawn root" ~rule
    [
      counters;
      msrc "lib/engine/pool.ml" "let worker () = Counters.hits := 1";
      msrc "lib/workload/worker.ml"
        "let run () = Domain.spawn Pool.worker";
    ];
  check_project_quiet "atomic foreign state is exempt" ~rule
    [
      msrc "lib/core/counters.ml" "let hits = Atomic.make 0";
      msrc "lib/workload/worker.ml"
        "let run () = Domain.spawn (fun () -> Atomic.incr Counters.hits)";
    ];
  check_project_quiet "mutex mediation" ~rule
    [
      counters;
      msrc "lib/workload/worker.ml"
        "let m = Mutex.create ()\n\
         let run () =\n\
        \  Domain.spawn (fun () ->\n\
        \      Mutex.lock m;\n\
        \      Counters.hits := 1;\n\
        \      Mutex.unlock m)";
    ];
  check_project_quiet "no spawn" ~rule
    [ counters; msrc "lib/workload/worker.ml" "let tally () = Counters.hits := 1" ];
  check_project_quiet "immutable target" ~rule
    [
      msrc "lib/core/counters.ml" "let limit = 5";
      msrc "lib/workload/worker.ml"
        "let run () = Domain.spawn (fun () -> Counters.limit := 1)";
    ]

let test_magic_tolerance () =
  let rule = "magic-tolerance" in
  check_fires "absolute-difference tolerance" ~rule
    "let f a b = Float.abs (a -. b) < 1e-9";
  check_fires "guard against 1e-12" ~rule "let f x = x > 1e-12";
  check_fires "literal on the left" ~rule "let f x = 1e-7 = x";
  check_fires "negated literal" ~rule "let f x = x < -1e-9";
  check_quiet "threshold, not tolerance" ~rule "let f x = x < 0.5";
  check_quiet "sign test" ~rule "let f x = x < 0.0";
  check_quiet "named constant" ~rule "let f x = x < Feq.tol_snap";
  check_quiet "sanctioned home" ~rel:"lib/util/feq.ml" ~rule
    "let f x = x < 1e-9";
  check_quiet "bisect is sanctioned" ~rel:"lib/util/bisect.ml" ~rule
    "let f x = x < 1e-12";
  check_quiet "outside lib" ~rel:"bench/fixture.ml" ~rule
    "let f x = x < 1e-9";
  check_quiet "int literal" ~rule "let f x = x < 1";
  check_quiet "non-comparison use" ~rule "let f x = x +. 1e-9"

(* ---------------- registry & reporters ---------------- *)

let test_registry () =
  Alcotest.(check int) "twelve rules" 12 (List.length Registry.all);
  Alcotest.(check bool)
    "select resolves every name" true
    (List.length (Registry.select Registry.names) = 12);
  Alcotest.(check bool)
    "every rule carries an example for --explain" true
    (List.for_all
       (fun (r : Rule.t) -> not (String.equal r.example ""))
       Registry.all);
  match Registry.select [ "no-such-rule" ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "expected Invalid_argument"

let contains s sub =
  let n = String.length s and k = String.length sub in
  let rec go i =
    i + k <= n && (String.equal (String.sub s i k) sub || go (i + 1))
  in
  go 0

let test_reporters () =
  let f =
    [
      Finding.v ~line:3 ~col:4 ~file:"a.ml" ~rule:"float-eq"
        ~severity:Finding.Error {|msg with "quote"|};
    ]
  in
  let human = Format.asprintf "%a" Report.pp_human f in
  Alcotest.(check bool)
    "human line" true
    (contains human "a.ml:3:4: [float-eq]");
  let json = Format.asprintf "%a" Report.pp_json f in
  Alcotest.(check bool) "json escapes" true (contains json {|\"quote\"|});
  Alcotest.(check bool)
    "json fields" true
    (contains json {|"rule":"float-eq"|})

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "float-eq" `Quick test_float_eq;
          Alcotest.test_case "naive-sum" `Quick test_naive_sum;
          Alcotest.test_case "nondeterminism" `Quick test_nondeterminism;
          Alcotest.test_case "printf-in-lib" `Quick test_printf_in_lib;
          Alcotest.test_case "missing-mli" `Quick test_missing_mli;
          Alcotest.test_case "catch-all-exn" `Quick test_catch_all_exn;
          Alcotest.test_case "unsafe-pow" `Quick test_unsafe_pow;
          Alcotest.test_case "obj-magic" `Quick test_obj_magic;
        ] );
      ( "dataflow",
        [
          Alcotest.test_case "domain-race" `Quick test_domain_race;
          Alcotest.test_case "dls-misuse" `Quick test_dls_misuse;
          Alcotest.test_case "taint-nondet" `Quick test_taint_nondet;
          test_solver_terminates;
          Alcotest.test_case "solver bound" `Quick test_solver_bound;
          Alcotest.test_case "sarif golden" `Quick test_sarif_golden;
        ] );
      ( "absdom",
        [
          Alcotest.test_case "lattice basics" `Quick test_absdom_basics;
          test_absdom_soundness;
          test_widening_terminates;
          Alcotest.test_case "widening good case" `Quick
            test_widening_good_case;
        ] );
      ( "whole-program",
        [
          Alcotest.test_case "unsafe-pow cross-module" `Quick
            test_cross_module_unsafe_pow;
          Alcotest.test_case "nan-flow" `Quick test_cross_module_nan_flow;
          Alcotest.test_case "domain-race cross-module" `Quick
            test_cross_module_domain_race;
          Alcotest.test_case "magic-tolerance" `Quick test_magic_tolerance;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "directives" `Quick test_suppression;
          Alcotest.test_case "diagnostics" `Quick test_suppression_diagnostics;
        ] );
      ( "engine",
        [
          Alcotest.test_case "parse error" `Quick test_parse_error;
          Alcotest.test_case "registry" `Quick test_registry;
          Alcotest.test_case "reporters" `Quick test_reporters;
        ] );
    ]
