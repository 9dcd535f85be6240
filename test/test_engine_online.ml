(* Tests for the online-engine registry: golden costs pinned per engine,
   online = batch (Driver) agreement, prefix stability (a decision on a
   prefix is byte-identical whether or not a suffix exists), and
   snapshot/restore round-trips. *)

open Speedscale_model
module Online = Speedscale_engine.Online
module Driver = Speedscale_sim.Driver
module Oa_engine = Speedscale_single.Oa_engine

let p3 = Power.make 3.0

(* The two E-series presets every engine is pinned on (seed and sizes
   match the values captured from the pre-refactor batch paths). *)
let golden_single =
  Speedscale_workload.Generate.datacenter ~power:p3 ~machines:1 ~seed:11
    ~n:12

let golden_multi =
  Speedscale_workload.Generate.datacenter ~power:p3 ~machines:3 ~seed:11
    ~n:14

(* ------------------------------------------------------------------ *)
(* Registry shape                                                       *)
(* ------------------------------------------------------------------ *)

let test_registry () =
  Alcotest.(check int) "ten engines" 10 (List.length Online.all);
  let names = List.map Online.name Online.all in
  Alcotest.(check (list string))
    "names"
    [
      "pd"; "npd"; "oa"; "avr"; "bkp"; "cll"; "moa"; "mavr"; "mcll";
      "partitioned";
    ]
    names;
  (* every engine declares its scheduling-model family *)
  Alcotest.(check (list string))
    "families"
    [
      "migratory"; "non-preemptive"; "preemptive"; "preemptive"; "preemptive";
      "preemptive"; "migratory"; "migratory"; "migratory"; "preemptive";
    ]
    (List.map (fun e -> Online.family_name (Online.family e)) Online.all);
  Alcotest.(check bool) "find pd" true (Online.find "PD" <> None);
  Alcotest.(check bool) "find npd" true (Online.find "NPD" <> None);
  Alcotest.(check bool) "find unknown" true (Online.find "yds" = None);
  (* single-processor classics refuse multiprocessor params *)
  Alcotest.check_raises "oa on m=2"
    (Invalid_argument "Online: engine oa is not applicable (machines = 2)")
    (fun () ->
      ignore (Online.start Online.oa (Online.params ~power:p3 ~machines:2 ())))

(* ------------------------------------------------------------------ *)
(* Golden costs + online = batch agreement                              *)
(* ------------------------------------------------------------------ *)

(* Costs captured from the legacy batch code paths before they were
   rebuilt on the incremental engines; any drift here means an engine no
   longer reproduces its batch counterpart. *)
let pinned =
  [
    ("single", "pd", 17.3655266437);
    ("single", "npd", 10.6774478387);
    ("single", "oa", 72.6165338428);
    ("single", "avr", 95.370113241);
    ("single", "bkp", 240.802924214);
    ("single", "cll", 13.1150728299);
    ("single", "moa", 72.6165338428);
    ("single", "mavr", 95.370113241);
    ("single", "mcll", 13.1150728299);
    ("single", "partitioned", 70.9525809571);
    ("multi", "pd", 15.3490173698);
    ("multi", "npd", 40.5850362424);
    ("multi", "moa", 48.4978634059);
    ("multi", "mavr", 75.2535631956);
    ("multi", "mcll", 14.0404649068);
    ("multi", "partitioned", 53.3789806859);
  ]

let driver_of_engine e =
  List.find
    (fun (a : Driver.algorithm) ->
      String.lowercase_ascii a.name = Online.name e)
    Driver.all

let test_golden_costs () =
  List.iter
    (fun (tag, inst) ->
      List.iter
        (fun e ->
          if Online.applicable e (Online.params_of_instance inst) then begin
            let name = Online.name e in
            let r = Online.run e inst in
            (match Schedule.validate inst r.schedule with
            | Ok () -> ()
            | Error msg -> Alcotest.failf "%s/%s invalid: %s" tag name msg);
            let cost = Cost.total (Schedule.cost inst r.schedule) in
            (match
               List.assoc_opt (tag, name)
                 (List.map (fun (t, n, c) -> ((t, n), c)) pinned)
             with
            | Some expected ->
              Alcotest.(check (float 1e-5))
                (Printf.sprintf "%s/%s pinned cost" tag name)
                expected cost
            | None -> Alcotest.failf "no pinned cost for %s/%s" tag name);
            (* one decision per arrival, plan matches the decisions *)
            Alcotest.(check int)
              (Printf.sprintf "%s/%s decision count" tag name)
              (Instance.n_jobs inst)
              (List.length r.decisions);
            let rejected_by_decision =
              List.filter_map
                (fun (d : Online.decision) ->
                  if d.accepted then None else Some d.job_id)
                r.decisions
              |> List.sort Int.compare
            in
            Alcotest.(check (list int))
              (Printf.sprintf "%s/%s rejected set" tag name)
              rejected_by_decision
              (List.sort Int.compare r.schedule.rejected);
            (* batch Driver counterpart runs the same fold *)
            let dr = Driver.evaluate (driver_of_engine e) inst in
            Alcotest.(check (float 1e-9))
              (Printf.sprintf "%s/%s online = Driver" tag name)
              (Cost.total dr.cost) cost
          end)
        Online.all)
    [ ("single", golden_single); ("multi", golden_multi) ]

(* ------------------------------------------------------------------ *)
(* Driver plumbing                                                      *)
(* ------------------------------------------------------------------ *)

let test_driver_clock_injection () =
  let r = Driver.evaluate Driver.pd golden_single in
  Alcotest.(check (float 0.0)) "deterministic elapsed_s" 0.0 r.elapsed_s;
  let ticks = ref 0.0 in
  let clock () =
    ticks := !ticks +. 2.5;
    !ticks
  in
  let r = Driver.evaluate ~clock Driver.pd golden_single in
  Alcotest.(check (float 1e-9)) "injected elapsed_s" 2.5 r.elapsed_s

(* ------------------------------------------------------------------ *)
(* Prefix stability (qcheck, every engine)                              *)
(* ------------------------------------------------------------------ *)

let mk_job ~id ~r ~d ~w ~v =
  Job.make ~id ~release:r ~deadline:d ~workload:w ~value:v

let gen_setup =
  QCheck.Gen.(
    let* machines = 1 -- 3 in
    let* n = 2 -- 5 in
    let* jobs =
      list_size (return n)
        (let* r = float_range 0.0 5.0 in
         let* span = float_range 0.4 3.0 in
         let* w = float_range 0.2 2.0 in
         let* v = float_range 0.5 20.0 in
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
  Instance.make ~power:p3 ~machines
    (List.mapi (fun i (r, d, w, v) -> mk_job ~id:i ~r ~d ~w ~v) jobs)

let decision_eq (a : Online.decision) (b : Online.decision) =
  a.job_id = b.job_id && a.accepted = b.accepted
  && Option.equal Float.equal a.lambda b.lambda
  && Option.equal Float.equal a.planned_speed b.planned_speed

let prop_prefix_stability =
  QCheck.Test.make
    ~name:
      "prefix stability: every engine's decisions on a k-prefix are \
       byte-identical with and without the suffix"
    ~count:15 arb_setup (fun setup ->
      let inst = instance_of setup in
      let jobs = Array.to_list inst.jobs in
      let n = List.length jobs in
      let k = max 1 (n / 2) in
      let prefix = List.filteri (fun i _ -> i < k) jobs in
      List.for_all
        (fun e ->
          let p = Online.params_of_instance inst in
          (not (Online.applicable e p))
          ||
          let full = Online.start e p in
          let full_decisions = List.map (Online.arrive full) jobs in
          let pre = Online.start e p in
          let pre_decisions = List.map (Online.arrive pre) prefix in
          let stable =
            List.for_all2 decision_eq pre_decisions
              (List.filteri (fun i _ -> i < k) full_decisions)
          in
          if not stable then
            QCheck.Test.fail_reportf "engine %s: prefix decisions diverge"
              (Online.name e);
          (* the prefix state's snapshot is the canonical replay record:
             independent of anything after the prefix *)
          let resumed = Online.restore (Online.snapshot pre) in
          let suffix = List.filteri (fun i _ -> i >= k) jobs in
          let resumed_decisions = List.map (Online.arrive resumed) suffix in
          List.for_all2 decision_eq resumed_decisions
            (List.filteri (fun i _ -> i >= k) full_decisions))
        Online.all)

(* ------------------------------------------------------------------ *)
(* Snapshot / restore                                                   *)
(* ------------------------------------------------------------------ *)

let test_snapshot_roundtrip () =
  List.iter
    (fun e ->
      let name = Online.name e in
      let inst = golden_multi in
      let p = Online.params_of_instance inst in
      if Online.applicable e p then begin
        let jobs = Array.to_list inst.jobs in
        let k = List.length jobs / 2 in
        let t1 = Online.start e p in
        List.iteri
          (fun i j -> if i < k then ignore (Online.arrive t1 j))
          jobs;
        let snap = Online.snapshot t1 in
        let t2 = Online.restore snap in
        Alcotest.(check string)
          (name ^ ": snapshot of restored state is byte-identical")
          snap (Online.snapshot t2);
        (* both halves continue identically *)
        List.iteri
          (fun i j ->
            if i >= k then begin
              let d1 = Online.arrive t1 j and d2 = Online.arrive t2 j in
              Alcotest.(check bool)
                (name ^ ": post-restore decision agrees")
                true
                (d1.accepted = d2.accepted
                && Option.equal Float.equal d1.lambda d2.lambda)
            end)
          jobs;
        Alcotest.(check (float 1e-9))
          (name ^ ": post-restore final cost agrees")
          (Cost.total (Schedule.cost inst (Online.finalize t1)))
          (Cost.total (Schedule.cost inst (Online.finalize t2)))
      end)
    Online.all

(* The pd engine runs its core with GC on (bounded memory), so the cut
   may land long after the native timeline has flushed its past.  The
   replay snapshot must still be an exact state transfer: decisions after
   restore byte-identical to the uninterrupted stream. *)
let gen_gc_stream =
  QCheck.Gen.(
    let* machines = oneofl [ 1; 3 ] in
    let* seed = int_range 0 1000 in
    return (machines, seed))

let arb_gc_stream =
  QCheck.make gen_gc_stream ~print:(fun (m, seed) ->
      Printf.sprintf "m=%d seed=%d" m seed)

let expiring_jobs ~seed ~n =
  (* releases march forward fast against tight deadlines, so intervals
     fall wholly into the past within a handful of arrivals *)
  let st = Random.State.make [| 0x6c1; seed |] in
  let t = ref 0.0 in
  List.init n (fun i ->
      t := !t +. 0.5 +. Random.State.float st 1.0;
      let w = 0.2 +. Random.State.float st 1.5 in
      let span = 0.3 +. Random.State.float st 1.2 in
      let v = 0.5 +. Random.State.float st 20.0 in
      mk_job ~id:i ~r:!t ~d:(!t +. span) ~w ~v)

let prop_gc_snapshot_restore_continue =
  QCheck.Test.make
    ~name:
      "pd engine: snapshot -> restore -> continue after GC fired is \
       byte-identical to the uninterrupted stream"
    ~count:20 arb_gc_stream (fun (machines, seed) ->
      let n = 60 in
      let jobs = expiring_jobs ~seed ~n in
      let k = n / 2 in
      (* the same prefix drives the raw core: GC must actually have fired
         before the cut, otherwise this property tests nothing *)
      let probe =
        Speedscale_core.Pd.create ~gc:true ~power:p3 ~machines ()
      in
      List.iteri
        (fun i j -> if i < k then ignore (Speedscale_core.Pd.arrive probe j))
        jobs;
      if (Speedscale_core.Pd.mem probe).flushed_intervals = 0 then
        QCheck.Test.fail_reportf "GC never fired on the %d-arrival prefix" k;
      let p = Online.params ~power:p3 ~machines () in
      let full = Online.start Online.pd p in
      let full_decisions = List.map (Online.arrive full) jobs in
      let pre = Online.start Online.pd p in
      List.iteri (fun i j -> if i < k then ignore (Online.arrive pre j)) jobs;
      let resumed = Online.restore (Online.snapshot pre) in
      let suffix = List.filteri (fun i _ -> i >= k) jobs in
      let resumed_decisions = List.map (Online.arrive resumed) suffix in
      List.for_all2 decision_eq resumed_decisions
        (List.filteri (fun i _ -> i >= k) full_decisions))

(* A snapshot file written before the tree-timeline/GC rework must still
   restore: the `online-snapshot v1` wire format is replay-based and owes
   nothing to the core's internal representation.  This fixture is a
   verbatim pre-rework snapshot (two arrivals into the pd engine). *)
let pre_rework_v1_fixture =
  "online-snapshot v1\n\
   engine pd\n\
   alpha 3\n\
   machines 2\n\
   job 0 0 2 1 10\n\
   job 1 0.5 1.5 1 inf\n"

let test_pre_rework_snapshot_still_restores () =
  let t = Online.restore pre_rework_v1_fixture in
  (* continuing from the fixture equals running the whole stream fresh *)
  let jobs =
    [
      mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:1.0 ~v:10.0;
      mk_job ~id:1 ~r:0.5 ~d:1.5 ~w:1.0 ~v:Float.infinity;
    ]
  in
  let later = mk_job ~id:2 ~r:1.0 ~d:3.0 ~w:0.8 ~v:5.0 in
  let fresh = Online.start Online.pd (Online.params ~power:p3 ~machines:2 ()) in
  let fresh_decisions = List.map (Online.arrive fresh) (jobs @ [ later ]) in
  let d_restored = Online.arrive t later in
  Alcotest.(check bool)
    "decision after restoring the old snapshot matches a fresh run" true
    (decision_eq d_restored (List.nth fresh_decisions 2));
  Alcotest.(check (float 1e-9))
    "final cost agrees"
    (Cost.total
       (Schedule.cost
          (Instance.make ~power:p3 ~machines:2 (jobs @ [ later ]))
          (Online.finalize fresh)))
    (Cost.total
       (Schedule.cost
          (Instance.make ~power:p3 ~machines:2 (jobs @ [ later ]))
          (Online.finalize t)))

(* An arrival the engine refuses after recording part of it (PD keeps a
   must-finish job's id and release before it finds the window
   degenerate) poisons the live state, while the snapshot holds the
   state before the refusal.  The live state must then refuse every
   later arrival, naming the refused job, rather than answer them
   differently from a state restored from its own snapshot. *)
let test_refused_arrival_stops_the_state () =
  let t = Online.start Online.pd (Online.params ~power:p3 ~machines:1 ()) in
  let first = mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:1.0 ~v:10.0 in
  ignore (Online.arrive t first);
  let before = Online.snapshot t in
  let refused =
    mk_job ~id:1 ~r:1.0 ~d:(1.0 +. 1e-13) ~w:1.0 ~v:Float.infinity
  in
  (match Online.arrive t refused with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "degenerate must-finish window accepted");
  Alcotest.(check string) "snapshot holds the state before the refusal"
    before (Online.snapshot t);
  let later =
    [
      ("earlier release", mk_job ~id:2 ~r:0.5 ~d:3.0 ~w:1.0 ~v:10.0);
      ("refused id again", mk_job ~id:1 ~r:1.0 ~d:3.0 ~w:1.0 ~v:10.0);
      ("in-order arrival", mk_job ~id:3 ~r:1.5 ~d:3.0 ~w:1.0 ~v:10.0);
    ]
  in
  List.iter
    (fun (name, j) ->
      match Online.arrive t j with
      | exception Invalid_argument m ->
        Alcotest.(check string) (name ^ ": refused, naming job 1")
          (Printf.sprintf
             "Online.arrive: job %d refused: the engine failed on job 1 and \
              takes no further arrivals"
             j.Job.id)
          m
      | exception e ->
        Alcotest.failf "%s: %s, not Invalid_argument" name
          (Printexc.to_string e)
      | _ -> Alcotest.failf "%s: accepted by a refused state" name)
    later;
  (* the snapshot is the point to resume from: it continues like a state
     that never saw the refused arrival *)
  let resumed = Online.restore before in
  let fresh = Online.start Online.pd (Online.params ~power:p3 ~machines:1 ()) in
  ignore (Online.arrive fresh first);
  List.iter
    (fun (name, j) ->
      Alcotest.(check bool) (name ^ ": resumed = fresh") true
        (decision_eq (Online.arrive resumed j) (Online.arrive fresh j)))
    later

let test_restore_errors () =
  Alcotest.check_raises "not a snapshot"
    (Failure "Online.restore: not an online-snapshot v1") (fun () ->
      ignore (Online.restore "service-manifest v1\n"));
  Alcotest.check_raises "unknown engine"
    (Failure "Online.restore: unknown engine \"yds\"") (fun () ->
      ignore
        (Online.restore
           "online-snapshot v1\nengine yds\nalpha 3\nmachines 1\n"))

(* A snapshot that parses but holds values the model refuses is bad
   input like any other: restore must fail with a Failure naming the
   line, never leak the constructors' Invalid_argument.  Checkpoint
   digests only prove the bytes are the ones written, so these can
   reach restore through a digest-valid checkpoint. *)
let test_restore_rejects_invalid_values () =
  let contains text sub =
    let n = String.length text and k = String.length sub in
    let rec go i = i + k <= n && (String.sub text i k = sub || go (i + 1)) in
    go 0
  in
  let fails name text markers =
    match Online.restore text with
    | _ -> Alcotest.fail (name ^ ": restored")
    | exception Failure m ->
      List.iter
        (fun mk ->
          Alcotest.(check bool)
            (Printf.sprintf "%s: %S mentions %S" name m mk)
            true (contains m mk))
        markers
  in
  let header = "online-snapshot v1\nengine pd\nalpha 3\nmachines 1\n" in
  fails "deadline <= release" (header ^ "job 0 1 1 1 1\n")
    [ "line 5"; "deadline" ];
  fails "negative workload" (header ^ "job 0 0 1 -1 1\n")
    [ "line 5"; "workload" ];
  fails "alpha <= 1" "online-snapshot v1\nengine pd\nalpha 1\nmachines 1\n"
    [ "line 3"; "alpha" ];
  fails "machines < 1"
    "online-snapshot v1\nengine pd\nalpha 3\nmachines 0\n"
    [ "line 4"; "machines" ];
  fails "bad delta" (header ^ "delta -1\n") [ "delta" ];
  fails "inapplicable engine"
    "online-snapshot v1\nengine oa\nalpha 3\nmachines 2\n"
    [ "not applicable" ];
  fails "duplicate id replay" (header ^ "job 0 0 2 1 1\njob 0 0 2 1 1\n")
    [ "duplicate" ];
  fails "release order replay" (header ^ "job 0 1 2 1 1\njob 1 0 2 1 1\n")
    [ "released" ]

(* ------------------------------------------------------------------ *)
(* clip_slices sliver regression                                        *)
(* ------------------------------------------------------------------ *)

let slice ~t0 ~t1 ~job : Schedule.slice =
  { proc = 0; t0; t1; job; speed = 1.0 }

let test_clip_slivers () =
  let slices = [ slice ~t0:0.0 ~t1:1.0 ~job:0; slice ~t0:1.0 ~t1:2.0 ~job:1 ] in
  (* a cut within float-dust of a boundary must not leave a zero-width
     sliver of the next slice behind *)
  let clipped = Oa_engine.clip_slices ~until:(1.0 +. 1e-12) slices in
  Alcotest.(check int) "sliver dropped" 1 (List.length clipped);
  Alcotest.(check int) "survivor is the first slice" 0
    (List.hd clipped).job;
  (* an interior cut keeps both parts, truncating the second *)
  let clipped = Oa_engine.clip_slices ~until:1.5 slices in
  Alcotest.(check int) "two slices" 2 (List.length clipped);
  let second = List.nth clipped 1 in
  Alcotest.(check (float 0.0)) "second truncated" 1.5 second.t1;
  (* a cut exactly at a boundary keeps only the first *)
  let clipped = Oa_engine.clip_slices ~until:1.0 slices in
  Alcotest.(check int) "boundary cut" 1 (List.length clipped)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "engine_online"
    [
      ( "registry",
        [
          Alcotest.test_case "shape and lookup" `Quick test_registry;
          Alcotest.test_case "golden costs, online = batch" `Slow
            test_golden_costs;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "driver clock injection" `Quick
            test_driver_clock_injection;
        ] );
      ( "stability",
        [
          QCheck_alcotest.to_alcotest prop_prefix_stability;
          QCheck_alcotest.to_alcotest prop_gc_snapshot_restore_continue;
          Alcotest.test_case "snapshot roundtrip" `Slow
            test_snapshot_roundtrip;
          Alcotest.test_case "pre-rework v1 snapshot restores" `Quick
            test_pre_rework_snapshot_still_restores;
          Alcotest.test_case "restore errors" `Quick test_restore_errors;
          Alcotest.test_case "refused arrival stops the state" `Quick
            test_refused_arrival_stops_the_state;
          Alcotest.test_case "restore rejects invalid values" `Quick
            test_restore_rejects_invalid_values;
        ] );
      ( "clipping",
        [ Alcotest.test_case "sliver regression" `Quick test_clip_slivers ] );
    ]
