(* Tests for the multiprocessor substrates: offline energy optimum (Mopt),
   multiprocessor Optimal Available (Moa) and the exact profitable optimum
   by subset enumeration (Opt). *)

open Speedscale_model
open Speedscale_multi

let p2 = Power.make 2.0
let p3 = Power.make 3.0

let mk_job ~id ~r ~d ~w ?(v = Float.infinity) () =
  Job.make ~id ~release:r ~deadline:d ~workload:w ~value:v

(* ------------------------------------------------------------------ *)
(* Mopt                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mopt_single_processor_is_yds () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      [
        mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:1.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ();
      ]
  in
  Alcotest.(check (float 1e-9))
    "YDS value" 5.0 (Mopt.energy inst)

let test_mopt_two_processors () =
  let inst =
    Instance.make ~power:p3 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:2.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ();
      ]
  in
  (* each job on its own processor at speed 2 *)
  Alcotest.(check (float 1e-3)) "2 * 8" 16.0 (Mopt.energy inst)

let test_mopt_schedule_valid () =
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:2.0 ();
        mk_job ~id:1 ~r:0.5 ~d:1.5 ~w:1.0 ();
        mk_job ~id:2 ~r:1.0 ~d:3.0 ~w:1.5 ();
      ]
  in
  let s = Mopt.schedule inst in
  match Schedule.validate inst s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid Mopt schedule: %s" e

(* ------------------------------------------------------------------ *)
(* Moa                                                                  *)
(* ------------------------------------------------------------------ *)

let test_moa_single_event_equals_opt () =
  (* all jobs released together: mOA = offline optimum *)
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0 ();
        mk_job ~id:1 ~r:0.0 ~d:2.0 ~w:2.0 ();
        mk_job ~id:2 ~r:0.0 ~d:2.0 ~w:1.0 ();
      ]
  in
  Alcotest.(check (float 1e-2))
    "matches Mopt" (Mopt.energy inst) (Moa.energy inst)

(* `psched generate --preset datacenter -m 8 --seed 2024 -n 60`: the
   replanned schedule leaves 2e-9 of job 24's work unexecuted at its
   deadline, above the remaining-work dust cut, and mOA used to build a
   view of that job released after its deadline (Job.make raised). *)
let test_moa_datacenter_past_deadline_dust () =
  let inst =
    Speedscale_workload.Generate.datacenter ~power:p3 ~machines:8 ~seed:2024
      ~n:60
  in
  match Schedule.validate inst (Moa.schedule inst) with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid mOA schedule: %s" e

let gen_setup =
  QCheck.Gen.(
    let* machines = 1 -- 3 in
    let* n = 1 -- 6 in
    let* jobs =
      list_size (return n)
        (let* r = float_range 0.0 5.0 in
         let* span = float_range 0.4 3.0 in
         let* w = float_range 0.2 2.0 in
         return (r, r +. span, w))
    in
    return (machines, jobs))

let arb_setup =
  QCheck.make gen_setup ~print:(fun (m, jobs) ->
      Printf.sprintf "m=%d jobs=[%s]" m
        (String.concat ";"
           (List.map (fun (r, d, w) -> Printf.sprintf "(%g,%g,%g)" r d w) jobs)))

let instance_of (machines, jobs) =
  Instance.make ~power:p2 ~machines
    (List.mapi (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w ()) jobs)

let prop_moa_feasible_and_bounded =
  QCheck.Test.make ~name:"mOA feasible; Mopt <= mOA <= alpha^alpha Mopt"
    ~count:40 arb_setup (fun setup ->
      let inst = instance_of setup in
      let s = Moa.schedule inst in
      (match Schedule.validate inst s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "infeasible mOA: %s" e);
      let moa = Schedule.energy p2 s in
      let opt = Mopt.energy inst in
      (* the numeric solver leaves ~1% slack on both sides *)
      moa >= opt -. (2e-2 *. (1.0 +. opt))
      && moa <= (4.0 *. opt) +. (2e-2 *. (1.0 +. opt)))

(* ------------------------------------------------------------------ *)
(* Mavr                                                                 *)
(* ------------------------------------------------------------------ *)

let test_mavr_single_processor_is_avr () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      [
        mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:2.0 ();
        mk_job ~id:1 ~r:1.0 ~d:3.0 ~w:2.0 ();
      ]
  in
  Alcotest.(check (float 1e-9))
    "matches classical AVR"
    (Speedscale_single.Avr.energy inst)
    (Mavr.energy inst)

let test_mavr_two_processors () =
  (* two non-overlapping-density jobs, each below the other's average:
     pooled on both processors *)
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:1.0 ();
      ]
  in
  (* each density 1, each dedicated at speed 1: energy 2 *)
  Alcotest.(check (float 1e-9)) "dedicated densities" 2.0 (Mavr.energy inst)

let prop_mavr_feasible_and_above_opt =
  QCheck.Test.make ~name:"mAVR feasible; energy >= Mopt" ~count:40 arb_setup
    (fun setup ->
      let inst = instance_of setup in
      let s = Mavr.schedule inst in
      (match Schedule.validate inst s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "infeasible mAVR: %s" e);
      let e = Schedule.energy p2 s in
      Float.abs (e -. Mavr.energy inst) <= 1e-6 *. (1.0 +. e)
      && e >= Mopt.energy inst -. (2e-2 *. (1.0 +. e)))

(* ------------------------------------------------------------------ *)
(* Partitioned (non-migratory)                                          *)
(* ------------------------------------------------------------------ *)

let test_partitioned_single_machine_is_yds () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      [
        mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:1.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ();
      ]
  in
  Alcotest.(check (float 1e-9)) "YDS value" 5.0 (Partitioned.energy inst)

let test_partitioned_spreads_equal_jobs () =
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:1.0 ();
      ]
  in
  let a = Partitioned.assign Least_energy_increase inst in
  Alcotest.(check bool) "different processors" true (a.(0) <> a.(1));
  Alcotest.(check (float 1e-9)) "each at speed 1" 2.0 (Partitioned.energy inst)

let prop_partitioned_feasible_and_above_migratory =
  QCheck.Test.make
    ~name:"partitioned feasible; energy >= migratory optimum" ~count:30
    arb_setup (fun setup ->
      let inst = instance_of setup in
      let s = Partitioned.schedule inst in
      (match Schedule.validate inst s with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "infeasible partitioned: %s" e);
      (* per-processor slices never collide across processors by
         construction; energy dominates the migratory optimum *)
      Schedule.energy p2 s >= Mopt.energy inst -. 2e-2)

let prop_partitioned_local_search_never_hurts =
  QCheck.Test.make
    ~name:"local search never increases partitioned energy" ~count:25
    arb_setup (fun setup ->
      let inst = instance_of setup in
      let base = Partitioned.energy inst in
      let improved = Partitioned.energy ~local_search:true inst in
      (match
         Schedule.validate inst (Partitioned.schedule ~local_search:true inst)
       with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "infeasible after search: %s" e);
      improved <= base +. (1e-9 *. (1.0 +. base)))

let test_partitioned_local_search_fixes_bad_start () =
  (* least-work puts the two big jobs apart but pairs them with the small
     ones badly; the crafted case below is fixed by one swap *)
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:2.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:1.9 ();
        mk_job ~id:2 ~r:1.0 ~d:2.0 ~w:2.0 ();
        mk_job ~id:3 ~r:1.0 ~d:2.0 ~w:1.9 ();
      ]
  in
  (* a deliberately bad assignment: both [0,1) jobs together *)
  let bad = [| 0; 0; 1; 1 |] in
  let better = Partitioned.improve inst bad in
  let energy_of a =
    List.init 2 (fun p ->
        Speedscale_single.Yds.energy p2
          (Array.to_list inst.jobs
          |> List.filter (fun (j : Job.t) -> a.(j.id) = p)))
    |> List.fold_left ( +. ) 0.0
  in
  Alcotest.(check bool) "strictly better" true
    (energy_of better < energy_of bad -. 1e-9)

let prop_partitioned_heuristics_both_valid =
  QCheck.Test.make ~name:"both partition heuristics produce valid schedules"
    ~count:30 arb_setup (fun setup ->
      let inst = instance_of setup in
      List.for_all
        (fun h ->
          match
            Schedule.validate inst (Partitioned.schedule ~heuristic:h inst)
          with
          | Ok () -> true
          | Error _ -> false)
        [ Partitioned.Least_work; Partitioned.Least_energy_increase ])

(* ------------------------------------------------------------------ *)
(* Opt (exact IMP)                                                      *)
(* ------------------------------------------------------------------ *)

let test_opt_single_job_accept_or_reject () =
  (* finishing costs 4 (speed 2 for 1s at alpha 2) *)
  let costly v =
    Instance.make ~power:p2 ~machines:1
      [ mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:2.0 ~v () ]
  in
  let r_accept = Opt.solve (costly 10.0) in
  Alcotest.(check (float 1e-6)) "accepts: cost = energy" 4.0 r_accept.cost;
  Alcotest.(check (list int)) "accepted set" [ 0 ] r_accept.accepted;
  let r_reject = Opt.solve (costly 3.0) in
  Alcotest.(check (float 1e-6)) "rejects: cost = value" 3.0 r_reject.cost;
  Alcotest.(check (list int)) "empty set" [] r_reject.accepted

let test_opt_mixed_pair () =
  (* two jobs share [0,1] on one processor; alpha=2.
     energies: both = (w1+w2)^2 = 9; only j0 (w=1) = 1; only j1 (w=2) = 4.
     values: v0 = 2, v1 = 3.
     costs: both: 9; none: 5; only j0: 1 + 3 = 4; only j1: 4 + 2 = 6. *)
  let inst =
    Instance.make ~power:p2 ~machines:1
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0 ~v:2.0 ();
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ~v:3.0 ();
      ]
  in
  let r = Opt.solve inst in
  Alcotest.(check (float 1e-6)) "best is only j0" 4.0 r.cost;
  Alcotest.(check (list int)) "keeps j0" [ 0 ] r.accepted

let test_opt_best_schedule_consistent () =
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.5 ~v:8.0 ();
        mk_job ~id:1 ~r:0.0 ~d:2.0 ~w:1.0 ~v:0.1 ();
        mk_job ~id:2 ~r:0.5 ~d:2.0 ~w:2.0 ~v:9.0 ();
      ]
  in
  let r, sched = Opt.best_schedule inst in
  (match Schedule.validate inst sched with
  | Ok () -> ()
  | Error e -> Alcotest.failf "invalid OPT schedule: %s" e);
  Alcotest.(check (float 1e-2))
    "schedule cost matches reported cost" r.cost
    (Cost.total (Schedule.cost inst sched))

let test_opt_rejects_oversized_instances () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      (List.init 15 (fun i ->
           mk_job ~id:i ~r:(float_of_int i) ~d:(float_of_int i +. 1.0) ~w:1.0
             ~v:1.0 ()))
  in
  Alcotest.check_raises "limit enforced"
    (Invalid_argument "Opt.solve: 15 jobs exceed the enumeration limit 14")
    (fun () -> ignore (Opt.solve inst))

(* ------------------------------------------------------------------ *)
(* Mcll (naive multiprocessor CLL)                                      *)
(* ------------------------------------------------------------------ *)

let test_mcll_single_processor_matches_cll () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      [
        Job.make ~id:0 ~release:0.0 ~deadline:1.0 ~workload:1.0 ~value:100.0;
        Job.make ~id:1 ~release:0.0 ~deadline:1.0 ~workload:2.0 ~value:0.05;
      ]
  in
  let m = Mcll.schedule inst in
  let c = Speedscale_single.Cll.schedule inst in
  Alcotest.(check (list int)) "same rejections" c.rejected m.rejected;
  Alcotest.(check (float 1e-6))
    "same cost"
    (Cost.total (Schedule.cost inst c))
    (Cost.total (Schedule.cost inst m))

(* The ground-truth competitive test: PD against the exact optimum. *)
let gen_profitable =
  QCheck.Gen.(
    let* machines = 1 -- 3 in
    let* n = 1 -- 6 in
    let* jobs =
      list_size (return n)
        (let* r = float_range 0.0 4.0 in
         let* span = float_range 0.4 3.0 in
         let* w = float_range 0.2 2.0 in
         let* v = float_range 0.1 10.0 in
         return (r, r +. span, w, v))
    in
    return (machines, jobs))

let arb_profitable =
  QCheck.make gen_profitable ~print:(fun (m, jobs) ->
      Printf.sprintf "m=%d jobs=[%s]" m
        (String.concat ";"
           (List.map
              (fun (r, d, w, v) -> Printf.sprintf "(%g,%g,%g,%g)" r d w v)
              jobs)))

let prop_mcll_feasible =
  QCheck.Test.make ~name:"mCLL schedules are feasible" ~count:20
    arb_profitable (fun (machines, jobs) ->
      let inst =
        Instance.make ~power:p2 ~machines
          (List.mapi (fun i (r, d, w, v) -> mk_job ~id:i ~r ~d ~w ~v ()) jobs)
      in
      match Schedule.validate inst (Mcll.schedule inst) with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_reportf "infeasible mCLL: %s" e)

let prop_pd_within_guarantee_of_exact_opt =
  QCheck.Test.make ~name:"cost(PD) <= alpha^alpha * cost(OPT-exact)"
    ~count:25 arb_profitable (fun (machines, jobs) ->
      let inst =
        Instance.make ~power:p2 ~machines
          (List.mapi (fun i (r, d, w, v) -> mk_job ~id:i ~r ~d ~w ~v ()) jobs)
      in
      let pd = Speedscale_core.Pd.run inst in
      let opt = Opt.solve inst in
      Cost.total pd.cost <= (4.0 *. opt.cost) +. (5e-2 *. (1.0 +. opt.cost)))

let prop_dual_bound_below_exact_opt =
  QCheck.Test.make ~name:"g(lambda) <= cost(OPT-exact)" ~count:25
    arb_profitable (fun (machines, jobs) ->
      let inst =
        Instance.make ~power:p2 ~machines
          (List.mapi (fun i (r, d, w, v) -> mk_job ~id:i ~r ~d ~w ~v ()) jobs)
      in
      let pd = Speedscale_core.Pd.run inst in
      let opt = Opt.solve inst in
      pd.dual_bound <= opt.cost +. (5e-2 *. (1.0 +. opt.cost)))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "multi"
    [
      ( "mopt",
        [
          Alcotest.test_case "m=1 is YDS" `Quick test_mopt_single_processor_is_yds;
          Alcotest.test_case "two processors" `Quick test_mopt_two_processors;
          Alcotest.test_case "schedule valid" `Quick test_mopt_schedule_valid;
        ] );
      ( "moa",
        [
          Alcotest.test_case "single event" `Quick test_moa_single_event_equals_opt;
          Alcotest.test_case "datacenter past-deadline dust" `Quick
            test_moa_datacenter_past_deadline_dust;
          q prop_moa_feasible_and_bounded;
        ] );
      ( "mavr",
        [
          Alcotest.test_case "m=1 is AVR" `Quick test_mavr_single_processor_is_avr;
          Alcotest.test_case "two processors" `Quick test_mavr_two_processors;
          q prop_mavr_feasible_and_above_opt;
        ] );
      ( "partitioned",
        [
          Alcotest.test_case "m=1 is YDS" `Quick
            test_partitioned_single_machine_is_yds;
          Alcotest.test_case "spreads equal jobs" `Quick
            test_partitioned_spreads_equal_jobs;
          Alcotest.test_case "local search fixes bad start" `Quick
            test_partitioned_local_search_fixes_bad_start;
          q prop_partitioned_feasible_and_above_migratory;
          q prop_partitioned_heuristics_both_valid;
          q prop_partitioned_local_search_never_hurts;
        ] );
      ( "mcll",
        [
          Alcotest.test_case "m=1 matches CLL" `Quick
            test_mcll_single_processor_matches_cll;
          q prop_mcll_feasible;
        ] );
      ( "opt",
        [
          Alcotest.test_case "single job" `Quick
            test_opt_single_job_accept_or_reject;
          Alcotest.test_case "mixed pair" `Quick test_opt_mixed_pair;
          Alcotest.test_case "best schedule" `Quick test_opt_best_schedule_consistent;
          Alcotest.test_case "size limit" `Quick test_opt_rejects_oversized_instances;
          q prop_pd_within_guarantee_of_exact_opt;
          q prop_dual_bound_below_exact_opt;
        ] );
    ]
