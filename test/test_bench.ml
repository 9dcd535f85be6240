(* Regression test over the experiment harness itself: run the fast
   figure/property experiments end-to-end and require every verdict to be
   CONFIRMED, pin the parallel runner's determinism, and check the PD
   cost/certificate laws the benchmark records lean on. *)

open Speedscale_obs
open Speedscale_model

let bench_exe =
  let candidates =
    [
      "../bench/main.exe";
      "_build/default/bench/main.exe";
      "bench/main.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bench/main.exe"

let run_experiments ids =
  let out = Filename.temp_file "bench" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1"
      (Filename.quote bench_exe)
      (String.concat " " ids)
      (Filename.quote out)
  in
  let code = Sys.command cmd in
  let ic = open_in out in
  let text =
    Fun.protect
      ~finally:(fun () ->
        close_in ic;
        Sys.remove out)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  (code, text)

let count_substring text sub =
  let n = String.length text and k = String.length sub in
  let rec go i acc =
    if i + k > n then acc
    else if String.sub text i k = sub then go (i + 1) (acc + 1)
    else go (i + 1) acc
  in
  go 0 0

let test_fast_experiments_confirmed () =
  let ids = [ "E2"; "E3"; "E4"; "E5"; "E10" ] in
  let code, text = run_experiments ids in
  Alcotest.(check int) "exit code" 0 code;
  Alcotest.(check int) "no NOT CONFIRMED" 0 (count_substring text "NOT CONFIRMED");
  Alcotest.(check int)
    (Printf.sprintf "%d verdicts" (List.length ids))
    (List.length ids)
    (count_substring text "-> CONFIRMED")

let test_figure_contents_stable () =
  (* pin the key lines of the reproduced figures *)
  let _, text = run_experiments [ "E4"; "E5" ] in
  List.iter
    (fun marker ->
      Alcotest.(check bool)
        (Printf.sprintf "mentions %S" marker)
        true
        (count_substring text marker > 0))
    [
      (* Figure 2: dedicated -> pool flip *)
      "job 0 DEDICATED  load 6.00";
      "POOL at speed 3.50";
      (* Figure 3: the conservative last interval *)
      "speed in the last atomic interval [2,3): PD 1.000 vs OA 1.667";
    ]

let test_unknown_id_rejected () =
  (* a typo like E99 must not pass for a successful (empty) run, and the
     retired E12 micro-timings are no longer an id *)
  List.iter
    (fun id ->
      let code, text = run_experiments [ id ] in
      Alcotest.(check int) (id ^ ": exit code") 2 code;
      Alcotest.(check bool) (id ^ ": names the bad id") true
        (count_substring text (Printf.sprintf "unknown experiment id %S" id)
        > 0))
    [ "E99"; "E12"; "timings" ]

(* ------------------------------------------------------------------ *)
(* PD cost / certificate laws (the numbers the records carry)           *)
(* ------------------------------------------------------------------ *)

(* Same random family as bench/harness.ml. *)
let random_instance ~alpha ~machines ~seed ~n =
  let power = Power.make alpha in
  Speedscale_workload.Generate.random ~power ~machines ~seed ~n
    ~arrivals:(Poisson (float_of_int machines))
    ~sizes:(Uniform_size (0.3, 2.5))
    ~laxity:(0.4, 2.5)
    ~values:(Uniform_value (0.2, 20.0))

let arb_pd_setup =
  QCheck.make
    ~print:(fun (alpha, machines, seed, n) ->
      Printf.sprintf "alpha=%g m=%d seed=%d n=%d" alpha machines seed n)
    QCheck.Gen.(
      tup4 (oneofl [ 2.0; 2.5; 3.0 ]) (int_range 1 4) (int_range 0 10_000)
        (int_range 1 40))

(* NOTE the law that is deliberately ABSENT here: "cost(PD) <= Σ v_j"
   (PD no worse than rejecting everything) is NOT a theorem and is
   empirically false on this very family — with δ = α^(1-α) an accepted
   job may invest up to α^(α-1)·v_j of energy, and on 14 400 sampled
   instances 281 violated the naive bound (worst ratio ≈ 2.98).  The
   paper's actual guarantee chain, tested below, is
       cost(PD) <= α^α · g(λ̃) <= α^α · OPT <= α^α · Σ v_j
   with g(λ̃) <= OPT <= Σ v_j by weak duality (rejecting everything is a
   feasible solution of cost Σ v_j). *)

let prop_pd_dual_bound_below_total_value =
  QCheck.Test.make ~name:"weak duality: g(lambda) <= sum of values"
    ~count:120 arb_pd_setup (fun (alpha, machines, seed, n) ->
      let inst = random_instance ~alpha ~machines ~seed ~n in
      let r = Speedscale_core.Pd.run inst in
      r.dual_bound <= Instance.total_value inst *. (1.0 +. 1e-9) +. 1e-12)

let prop_pd_cost_within_guarantee_of_certificate =
  QCheck.Test.make
    ~name:"Theorem 3: cost(PD) <= alpha^alpha * g(lambda)" ~count:120
    arb_pd_setup (fun (alpha, machines, seed, n) ->
      let inst = random_instance ~alpha ~machines ~seed ~n in
      let r = Speedscale_core.Pd.run inst in
      Cost.total r.cost <= (r.guarantee *. r.dual_bound *. (1.0 +. 1e-6)) +. 1e-9)

let prop_pd_cost_within_guarantee_of_total_value =
  QCheck.Test.make
    ~name:"chained bound: cost(PD) <= alpha^alpha * sum of values"
    ~count:120 arb_pd_setup (fun (alpha, machines, seed, n) ->
      let inst = random_instance ~alpha ~machines ~seed ~n in
      let r = Speedscale_core.Pd.run inst in
      Cost.total r.cost
      <= (r.guarantee *. Instance.total_value inst *. (1.0 +. 1e-6)) +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Parallel-runner determinism, end to end through the bench exe        *)
(* ------------------------------------------------------------------ *)

let bench_json ids ~jobs =
  let json = Filename.temp_file "bench" ".json" in
  let code, text =
    run_experiments
      (ids @ [ "--jobs"; string_of_int jobs; "--json"; Filename.quote json ])
  in
  Alcotest.(check int) (Printf.sprintf "jobs=%d exit" jobs) 0 code;
  let file =
    match Record.read_file ~path:json with
    | Ok f -> f
    | Error e -> Alcotest.failf "jobs=%d: %s" jobs e
  in
  Sys.remove json;
  (text, file)

let test_parallel_equals_sequential () =
  let ids = [ "E2"; "E3"; "E4"; "E5" ] in
  let out1, f1 = bench_json ids ~jobs:1 in
  let out3, f3 = bench_json ids ~jobs:3 in
  (* stdout is byte-identical: the DLS sink + ordered merge leave no trace
     of the fan-out *)
  Alcotest.(check string) "stdout bytes" out1 out3;
  (* structured records agree on everything except wall-clock *)
  Alcotest.(check int) "record count"
    (List.length f1.records) (List.length f3.records);
  List.iter2
    (fun (a : Record.t) (b : Record.t) ->
      Alcotest.(check string) "record order" a.id b.id;
      Alcotest.(check bool)
        (Printf.sprintf "record %s payload" a.id)
        true
        (Record.equal_modulo_timing a b))
    f1.records f3.records;
  (* the producing jobs count is the only env difference *)
  Alcotest.(check int) "env jobs 1" 1 f1.env.jobs;
  Alcotest.(check int) "env jobs 3" 3 f3.env.jobs

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "bench-harness"
    [
      ( "verdicts",
        [
          Alcotest.test_case "fast experiments confirmed" `Quick
            test_fast_experiments_confirmed;
          Alcotest.test_case "figures stable" `Quick test_figure_contents_stable;
        ] );
      ( "cli",
        [
          Alcotest.test_case "unknown id rejected" `Quick
            test_unknown_id_rejected;
        ] );
      ( "pd-laws",
        [
          q prop_pd_dual_bound_below_total_value;
          q prop_pd_cost_within_guarantee_of_certificate;
          q prop_pd_cost_within_guarantee_of_total_value;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "parallel = sequential" `Quick
            test_parallel_equals_sequential;
        ] );
    ]
