(* Tests for the operational replay engine, including cross-checks against
   the analytic layer (Schedule energy / Structure statistics). *)

open Speedscale_model
open Speedscale_engine

let p2 = Power.make 2.0

let mk ~id ~r ~d ~w ?(v = Float.infinity) () =
  Job.make ~id ~release:r ~deadline:d ~workload:w ~value:v

let slice proc t0 t1 job speed = { Schedule.proc; t0; t1; job; speed }

let kinds_of run job kind =
  List.filter (fun (e : Executor.event) -> e.job = job && e.kind = kind)
    run.Executor.events

(* ------------------------------------------------------------------ *)
(* Lifecycle on hand-built schedules                                    *)
(* ------------------------------------------------------------------ *)

let test_simple_run_events () =
  let inst = Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.0 ~d:2.0 ~w:2.0 () ] in
  let s = Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 2.0 0 1.0 ] in
  let run = Executor.replay inst s in
  Alcotest.(check int) "arrival" 1 (List.length (kinds_of run 0 Executor.Arrival));
  Alcotest.(check int) "start" 1 (List.length (kinds_of run 0 Executor.Start));
  Alcotest.(check int) "complete" 1 (List.length (kinds_of run 0 Executor.Complete));
  Alcotest.(check int) "no misses" 0
    (List.length (kinds_of run 0 Executor.Deadline_miss));
  let o = run.outcomes.(0) in
  Alcotest.(check bool) "completed" true o.completed;
  Alcotest.(check (float 1e-9)) "work" 2.0 o.work_done;
  Alcotest.(check (float 1e-9)) "completion at 2" 2.0
    (Option.get o.completion_time);
  Alcotest.(check (float 1e-9)) "energy" 2.0 run.total_energy;
  Alcotest.(check (float 1e-9)) "makespan" 2.0 run.makespan

let test_preempt_resume_migrate () =
  let inst =
    Instance.make ~power:p2 ~machines:2 [ mk ~id:0 ~r:0.0 ~d:5.0 ~w:3.0 () ]
  in
  (* run [0,1) proc0, gap, [2,3) proc0 (resume), then [3,4) proc1
     (migrate, contiguous) *)
  let s =
    Schedule.make ~machines:2 ~rejected:[]
      [ slice 0 0.0 1.0 0 1.0; slice 0 2.0 3.0 0 1.0; slice 1 3.0 4.0 0 1.0 ]
  in
  let run = Executor.replay inst s in
  Alcotest.(check int) "2 preempts" 2
    (List.length (kinds_of run 0 Executor.Preempt));
  Alcotest.(check int) "1 resume" 1
    (List.length (kinds_of run 0 Executor.Resume));
  Alcotest.(check int) "1 migrate" 1
    (List.length (kinds_of run 0 Executor.Migrate));
  let o = run.outcomes.(0) in
  Alcotest.(check int) "outcome preemptions" 2 o.n_preemptions;
  Alcotest.(check int) "outcome migrations" 1 o.n_migrations

let test_speed_change_contiguous () =
  let inst = Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.0 ~d:3.0 ~w:3.0 () ] in
  let s =
    Schedule.make ~machines:1 ~rejected:[]
      [ slice 0 0.0 1.0 0 1.0; slice 0 1.0 2.0 0 2.0 ]
  in
  let run = Executor.replay inst s in
  Alcotest.(check int) "speed change" 1
    (List.length (kinds_of run 0 Executor.Speed_change));
  Alcotest.(check int) "no preempt" 0
    (List.length (kinds_of run 0 Executor.Preempt))

let test_deadline_miss_detected () =
  let inst = Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.0 ~d:1.0 ~w:5.0 () ] in
  let s = Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 1.0 0 1.0 ] in
  let run = Executor.replay inst s in
  Alcotest.(check int) "miss" 1
    (List.length (kinds_of run 0 Executor.Deadline_miss));
  Alcotest.(check bool) "not completed" false run.outcomes.(0).completed

let test_rejected_job_events () =
  let inst =
    Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.5 ~d:1.0 ~w:5.0 ~v:1.0 () ]
  in
  let s = Schedule.make ~machines:1 ~rejected:[ 0 ] [] in
  let run = Executor.replay inst s in
  Alcotest.(check int) "reject event" 1
    (List.length (kinds_of run 0 Executor.Reject));
  Alcotest.(check int) "no miss for rejected" 0
    (List.length (kinds_of run 0 Executor.Deadline_miss))

let test_mid_slice_completion () =
  (* slice longer than the remaining work: completion lands inside *)
  let inst = Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.0 ~d:4.0 ~w:1.0 () ] in
  let s = Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 4.0 0 1.0 ] in
  let run = Executor.replay inst s in
  Alcotest.(check (float 1e-9)) "completes at t=1" 1.0
    (Option.get run.outcomes.(0).completion_time)

let test_events_chronological () =
  let inst =
    Instance.make ~power:p2 ~machines:1
      [ mk ~id:0 ~r:0.0 ~d:2.0 ~w:1.0 (); mk ~id:1 ~r:0.5 ~d:2.0 ~w:1.0 () ]
  in
  let s =
    Schedule.make ~machines:1 ~rejected:[]
      [ slice 0 0.0 1.0 0 1.0; slice 0 1.0 2.0 1 1.0 ]
  in
  let run = Executor.replay inst s in
  let rec sorted = function
    | (a : Executor.event) :: (b :: _ as rest) ->
      a.time <= b.time +. 1e-12 && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "chronological" true (sorted run.events)

let test_csv_export () =
  let inst = Instance.make ~power:p2 ~machines:1 [ mk ~id:0 ~r:0.0 ~d:1.0 ~w:1.0 () ] in
  let s = Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 1.0 0 1.0 ] in
  let csv = Executor.to_csv (Executor.replay inst s) in
  let lines = String.split_on_char '\n' csv |> List.filter (( <> ) "") in
  Alcotest.(check string) "header" "time,kind,job,proc,speed" (List.hd lines);
  (* arrival + start + complete = 3 events *)
  Alcotest.(check int) "rows" 4 (List.length lines)

(* ------------------------------------------------------------------ *)
(* Cross-checks against the analytic layer on real PD runs              *)
(* ------------------------------------------------------------------ *)

let gen_setup =
  QCheck.Gen.(
    let* machines = 1 -- 3 in
    let* n = 1 -- 10 in
    let* jobs =
      list_size (return n)
        (let* r = float_range 0.0 6.0 in
         let* span = float_range 0.4 3.0 in
         let* w = float_range 0.2 2.0 in
         let* v = float_range 0.1 15.0 in
         return (r, r +. span, w, v))
    in
    return (machines, jobs))

let arb_setup =
  QCheck.make gen_setup ~print:(fun (m, jobs) ->
      Printf.sprintf "m=%d jobs=[%s]" m
        (String.concat ";"
           (List.map
              (fun (r, d, w, v) -> Printf.sprintf "(%g,%g,%g,%g)" r d w v)
              jobs)))

let instance_of (machines, jobs) =
  Instance.make ~power:p2 ~machines
    (List.mapi (fun i (r, d, w, v) -> mk ~id:i ~r ~d ~w ~v ()) jobs)

let prop_replay_agrees_with_analytic =
  QCheck.Test.make
    ~name:"replay of PD: energy, work and misses agree with Schedule"
    ~count:150 arb_setup (fun setup ->
      let inst = instance_of setup in
      let r = Speedscale_core.Pd.run inst in
      let run = Executor.replay inst r.schedule in
      (* energy agrees *)
      let analytic = Schedule.energy inst.Instance.power r.schedule in
      if Float.abs (run.total_energy -. analytic) > 1e-6 *. (1.0 +. analytic)
      then QCheck.Test.fail_reportf "energy mismatch";
      (* no deadline misses on a valid schedule *)
      if
        List.exists
          (fun (e : Executor.event) -> e.kind = Executor.Deadline_miss)
          run.events
      then QCheck.Test.fail_reportf "unexpected deadline miss";
      (* work accounting agrees per job *)
      Array.for_all
        (fun (o : Executor.job_outcome) ->
          Float.abs (o.work_done -. Schedule.work_of_job r.schedule o.job)
          <= 1e-6 *. (1.0 +. o.work_done))
        run.outcomes)

let prop_replay_counts_match_structure =
  QCheck.Test.make
    ~name:"replay preempt/migrate counts equal Structure's" ~count:150
    arb_setup (fun setup ->
      let inst = instance_of setup in
      let r = Speedscale_core.Pd.run inst in
      let run = Executor.replay inst r.schedule in
      let st = Speedscale_metrics.Structure.of_schedule r.schedule in
      let total f =
        Array.fold_left (fun acc o -> acc + f o) 0 run.outcomes
      in
      (* Structure counts a migration once (consecutive slices on distinct
         processors) and a preemption only on a time gap; the engine
         counts a migration also as a preemption.  Their relationship is
         engine.preempt = structure.preempt + structure.migrate-without-gap;
         we check the exactly-equal quantities instead: *)
      total (fun o -> o.Executor.n_migrations) = st.migrations)

let prop_replay_completes_accepted =
  QCheck.Test.make ~name:"accepted jobs complete before deadline" ~count:150
    arb_setup (fun setup ->
      let inst = instance_of setup in
      let r = Speedscale_core.Pd.run inst in
      let run = Executor.replay inst r.schedule in
      List.for_all
        (fun id ->
          let o = run.outcomes.(id) in
          o.completed
          && Option.get o.completion_time
             <= (Instance.job inst id).deadline +. 1e-6)
        r.accepted)

(* Fault injection: damage a valid schedule by deleting one slice.  The
   analytic validator and the operational replay engine must agree that
   something is wrong (some job under-served), and on healthy schedules
   they must agree everything is fine — a differential test between two
   independent checkers. *)
let prop_fault_injection_differential =
  QCheck.Test.make
    ~name:"validator and replay engine agree on damaged schedules"
    ~count:100
    QCheck.(pair arb_setup (int_bound 1000))
    (fun (setup, pick) ->
      let inst = instance_of setup in
      let r = Speedscale_core.Pd.run inst in
      let slices = Schedule.slices r.schedule in
      QCheck.assume (slices <> []);
      let victim = List.nth slices (pick mod List.length slices) in
      let damaged =
        Schedule.make ~machines:inst.Instance.machines
          ~rejected:r.schedule.rejected
          (List.filter (fun s -> s != victim) slices)
      in
      let validator_ok =
        match Schedule.validate inst damaged with Ok () -> true | Error _ -> false
      in
      let run = Executor.replay inst damaged in
      let replay_ok =
        (not
           (List.exists
              (fun (e : Executor.event) -> e.kind = Executor.Deadline_miss)
              run.events))
        && List.for_all
             (fun id -> run.outcomes.(id).completed)
             r.accepted
      in
      (* deleting work from an accepted job must break both checkers;
         if the victim belonged to work already over-provisioned by
         rounding dust both may still pass — they must AGREE either way *)
      validator_ok = replay_ok)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "lifecycle",
        [
          Alcotest.test_case "simple run" `Quick test_simple_run_events;
          Alcotest.test_case "preempt/resume/migrate" `Quick
            test_preempt_resume_migrate;
          Alcotest.test_case "speed change" `Quick test_speed_change_contiguous;
          Alcotest.test_case "deadline miss" `Quick test_deadline_miss_detected;
          Alcotest.test_case "rejected job" `Quick test_rejected_job_events;
          Alcotest.test_case "mid-slice completion" `Quick
            test_mid_slice_completion;
          Alcotest.test_case "chronological" `Quick test_events_chronological;
          Alcotest.test_case "csv" `Quick test_csv_export;
        ] );
      ( "cross-checks",
        [
          q prop_replay_agrees_with_analytic;
          q prop_replay_counts_match_structure;
          q prop_replay_completes_accepted;
          q prop_fault_injection_differential;
        ] );
    ]
