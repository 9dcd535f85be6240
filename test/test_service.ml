(* Tests for the sharded admission-control service and its parts: the
   persistent worker pool (lib/obs/pool), atomic file commits and the
   checkpoint manifest protocol (lib/service), and the service loop's
   headline properties — deterministic merged output at any worker
   count, checkpoint-at-arbitrary-cut → restore → replay-suffix
   byte-identity for every registry engine, and live migration leaving
   every engine's decision stream untouched. *)

open Speedscale_model
module Online = Speedscale_engine.Online
module Pool = Speedscale_obs.Pool
module Atomic_io = Speedscale_service.Atomic_io
module Checkpoint = Speedscale_service.Checkpoint
module Service = Speedscale_service.Service

let contains text sub =
  let n = String.length text and k = String.length sub in
  let rec go i = i + k <= n && (String.sub text i k = sub || go (i + 1)) in
  k = 0 || go 0

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path text =
  let oc = open_out_bin path in
  output_string oc text;
  close_out oc

let with_tmp_dir f =
  let dir = Filename.temp_file "service" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun n -> Sys.remove (Filename.concat dir n))
        (Sys.readdir dir);
      Sys.rmdir dir)
    (fun () -> f dir)

(* ------------------------------------------------------------------ *)
(* Atomic_io                                                            *)
(* ------------------------------------------------------------------ *)

let test_atomic_roundtrip () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "f" in
      Atomic_io.write ~path "hello";
      Alcotest.(check string) "roundtrip" "hello" (Atomic_io.read ~path);
      Atomic_io.write ~path "replaced";
      Alcotest.(check string) "replace" "replaced" (Atomic_io.read ~path))

(* The satellite bugfix pinned as a property: a writer that dies midway
   must never leave a partial file at the destination — the previous
   contents survive untouched and no temp file lingers. *)
let test_atomic_partial_never_observed () =
  with_tmp_dir (fun dir ->
      let path = Filename.concat dir "snap" in
      Atomic_io.write ~path "old and complete";
      let n = ref 0 in
      let boom () =
        incr n;
        if !n > 2 then failwith "disk died" else Some "partial chunk "
      in
      (match Atomic_io.write_seq ~path boom with
      | () -> Alcotest.fail "write_seq should have raised"
      | exception Failure m ->
        Alcotest.(check string) "the writer's error survives" "disk died" m);
      Alcotest.(check string)
        "old contents still in place" "old and complete"
        (Atomic_io.read ~path);
      Alcotest.(check bool)
        "no temp file left behind" false
        (Sys.file_exists (path ^ ".tmp")))

(* ------------------------------------------------------------------ *)
(* Pool                                                                 *)
(* ------------------------------------------------------------------ *)

(* Queue-confined counters: each queue's tasks append to that queue's
   own buffer, so per-queue serialization is exactly what makes this
   test deterministic. *)
let test_pool_per_queue_order () =
  let queues = 4 and per_queue = 500 in
  let pool = Pool.create ~workers:3 ~queues () in
  let logs = Array.init queues (fun _ -> ref []) in
  for i = 0 to per_queue - 1 do
    for q = 0 to queues - 1 do
      while not (Pool.submit pool ~queue:q (fun () ->
                     logs.(q) := i :: !(logs.(q))))
      do
        Domain.cpu_relax ()
      done
    done
  done;
  Pool.quiesce pool;
  Pool.shutdown pool;
  Array.iter
    (fun log ->
      Alcotest.(check (list int))
        "tasks of one queue ran in submission order"
        (List.init per_queue (fun i -> per_queue - 1 - i))
        !(log))
    logs

let test_pool_migration_keeps_order () =
  let pool = Pool.create ~workers:4 ~queues:1 () in
  let log = ref [] in
  for i = 0 to 999 do
    if i mod 100 = 0 then
      Pool.assign pool ~queue:0 ~worker:(i / 100 mod 4);
    while not (Pool.submit pool ~queue:0 (fun () -> log := i :: !log)) do
      Domain.cpu_relax ()
    done
  done;
  Pool.quiesce pool;
  Pool.shutdown pool;
  Alcotest.(check (list int))
    "order survives reassignment"
    (List.init 1000 (fun i -> 999 - i))
    !log

let test_pool_poison_and_shutdown () =
  let pool = Pool.create ~workers:2 ~queues:2 () in
  ignore (Pool.submit pool ~queue:1 (fun () -> failwith "task blew up"));
  (match Pool.quiesce pool with
  | () -> Alcotest.fail "quiesce should re-raise the task's exception"
  | exception Failure m -> Alcotest.(check string) "message" "task blew up" m);
  (match Pool.shutdown pool with
  | () -> Alcotest.fail "shutdown should re-raise too"
  | exception Failure _ -> ());
  (* idempotent: a second shutdown still reports, never hangs *)
  (match Pool.shutdown pool with
  | () -> Alcotest.fail "still poisoned"
  | exception Failure _ -> ());
  match Pool.submit pool ~queue:0 (fun () -> ()) with
  | _ -> Alcotest.fail "submit after shutdown should raise"
  | exception Invalid_argument _ -> ()

(* ------------------------------------------------------------------ *)
(* Service: determinism and equivalences                                *)
(* ------------------------------------------------------------------ *)

let p3 = Power.make 3.0

let jobs_of n ~machines ~seed =
  let inst =
    Speedscale_workload.Generate.random ~power:p3 ~machines ~seed ~n
      ~arrivals:(Poisson 1.0)
      ~sizes:(Uniform_size (0.3, 2.5))
      ~laxity:(0.4, 2.5)
      ~values:(Uniform_value (0.2, 20.0))
  in
  Array.to_list inst.Instance.jobs

let feed svc jobs =
  let evs = List.concat_map (fun j -> Service.submit svc j) jobs in
  evs @ Service.drain svc

let ev_eq (a : Service.ev) (b : Service.ev) =
  a.seq = b.seq && a.shard = b.shard
  && a.decision.Online.job_id = b.decision.Online.job_id
  && a.decision.accepted = b.decision.accepted
  && a.decision.lambda = b.decision.lambda
  && a.decision.planned_speed = b.decision.planned_speed

let check_ev_lists what expected got =
  Alcotest.(check int) (what ^ ": count") (List.length expected)
    (List.length got);
  Alcotest.(check bool)
    (what ^ ": events equal") true
    (List.for_all2 ev_eq expected got)

(* One shard over the whole machine pool is plain Online.run with a
   pool-and-queue detour: decisions and final schedule must agree
   exactly. *)
let test_service_k1_equals_online_run () =
  let jobs = jobs_of 80 ~machines:2 ~seed:5 in
  let params _ = Online.params ~power:p3 ~machines:2 () in
  let svc = Service.create ~engine:Online.pd ~params ~shards:1 () in
  let evs = feed svc jobs in
  let plans = Service.finalize svc in
  Service.shutdown svc;
  let t = Online.start Online.pd (params 0) in
  let direct = List.map (Online.arrive t) jobs in
  let direct_plan = Online.finalize t in
  Alcotest.(check int) "event count" (List.length jobs) (List.length evs);
  List.iter2
    (fun (ev : Service.ev) (d : Online.decision) ->
      Alcotest.(check bool) "same decision" true
        (ev.decision.job_id = d.job_id
        && ev.decision.accepted = d.accepted
        && ev.decision.lambda = d.lambda
        && ev.decision.planned_speed = d.planned_speed))
    evs direct;
  Alcotest.(check int) "one plan" 1 (Array.length plans);
  Alcotest.(check (float 1e-12))
    "same energy" (Schedule.energy p3 direct_plan)
    (Schedule.energy p3 plans.(0))

(* Same shards, different worker counts: the merged stream must not
   care how many domains serve it. *)
let test_service_worker_count_invariance () =
  let jobs = jobs_of 120 ~machines:4 ~seed:9 in
  let params _ = Online.params ~power:p3 ~machines:1 () in
  let run workers =
    let svc =
      Service.create ~workers ~engine:Online.pd ~params ~shards:4 ()
    in
    let evs = feed svc jobs in
    Service.shutdown svc;
    evs
  in
  check_ev_lists "1 vs 4 workers" (run 1) (run 4);
  check_ev_lists "4 vs 2 workers" (run 4) (run 2)

(* Live migration only moves a shard's queue to another domain:
   rotating every shard across every worker mid-stream changes nothing
   downstream, for every engine applicable at one machine per shard.
   Migration serializes nothing, so this is what pins it for the
   OA-family, accumulator and partitioned engines as well as PD. *)
let test_service_migration_equivalence () =
  let jobs = jobs_of 150 ~machines:3 ~seed:13 in
  let params _ = Online.params ~power:p3 ~machines:1 () in
  let run engine ~migrate =
    let svc = Service.create ~workers:3 ~engine ~params ~shards:3 () in
    let evs =
      List.concat
        (List.mapi
           (fun i j ->
             let evs = Service.submit svc j in
             if migrate && i mod 10 = 0 then
               Service.migrate svc ~shard:(i mod 3)
                 ~worker:((Service.worker_of svc ~shard:(i mod 3) + 1) mod 3);
             evs)
           jobs)
    in
    let evs = evs @ Service.drain svc in
    let plans = Service.finalize svc in
    Service.shutdown svc;
    (evs, plans)
  in
  List.iter
    (fun engine ->
      let name = Online.name engine in
      let quiet, quiet_plans = run engine ~migrate:false in
      let migrated, migrated_plans = run engine ~migrate:true in
      check_ev_lists (name ^ ": migration") quiet migrated;
      Array.iteri
        (fun i p ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "%s shard %d energy" name i)
            (Schedule.energy p3 p)
            (Schedule.energy p3 migrated_plans.(i));
          Alcotest.(check (list int))
            (Printf.sprintf "%s shard %d rejected" name i)
            p.Schedule.rejected migrated_plans.(i).Schedule.rejected)
        quiet_plans)
    (List.filter (fun e -> Online.applicable e (params 0)) Online.all)

(* ------------------------------------------------------------------ *)
(* One worker: inline on a one-CPU process, one pool domain otherwise   *)
(* ------------------------------------------------------------------ *)

(* With one worker and one CPU (taskset, a one-CPU cgroup), Service runs
   the shards on the calling domain.  test/dune runs this suite a second
   time pinned to one CPU, so these cases check the inline path there
   and the one-domain pool path on a multi-CPU run. *)
let inline_expected () = Domain.recommended_domain_count () = 1

let one_worker_service () =
  let params _ = Online.params ~power:p3 ~machines:1 () in
  let svc = Service.create ~workers:1 ~engine:Online.pd ~params ~shards:3 () in
  Alcotest.(check int) "one worker" 1 (Service.workers svc);
  svc

let test_one_worker_submit_after_shutdown () =
  let svc = one_worker_service () in
  let jobs = jobs_of 20 ~machines:3 ~seed:4 in
  ignore (feed svc jobs);
  Service.shutdown svc;
  Service.shutdown svc;
  let late =
    Job.make ~id:20 ~release:1e6 ~deadline:(1e6 +. 1.) ~workload:1.
      ~value:1.
  in
  (match Service.submit svc late with
  | _ -> Alcotest.fail "submit after shutdown must raise"
  | exception Invalid_argument _ -> ());
  Alcotest.(check int) "seq unchanged" 20 (Service.seq svc)

let test_one_worker_migrate () =
  let jobs = jobs_of 60 ~machines:3 ~seed:11 in
  let quiet = one_worker_service () in
  let expected = feed quiet jobs in
  Service.shutdown quiet;
  let svc = one_worker_service () in
  (match Service.migrate svc ~shard:0 ~worker:1 with
  | () -> Alcotest.fail "worker 1 of one must be refused"
  | exception Invalid_argument _ -> ());
  (match Service.migrate svc ~shard:3 ~worker:0 with
  | () -> Alcotest.fail "shard 3 of three must be refused"
  | exception Invalid_argument _ -> ());
  let evs =
    List.concat
      (List.mapi
         (fun i j ->
           let evs = Service.submit svc j in
           Service.migrate svc ~shard:(i mod 3) ~worker:0;
           Alcotest.(check int) "still worker 0" 0
             (Service.worker_of svc ~shard:(i mod 3));
           evs)
         jobs)
  in
  let evs = evs @ Service.drain svc in
  Service.shutdown svc;
  check_ev_lists "migrate to worker 0" expected evs

(* A duplicate id is refused by the engine inside the shard's task.
   Inline, the refusal surfaces from that arrival's own submit; on a
   worker domain it may surface there, at a later submit or at drain,
   but never before the refused arrival is submitted. *)
let test_one_worker_refusal_surfaces () =
  let svc = one_worker_service () in
  let jobs = jobs_of 40 ~machines:3 ~seed:6 in
  let refused_at = 10 in
  let stream =
    List.filteri (fun i _ -> i < refused_at) jobs
    @ [ List.nth jobs 9 ]
    @ List.filteri (fun i _ -> i >= refused_at) jobs
  in
  (* the index of the submit that raised; the stream's length for drain *)
  let rec surfaced i = function
    | [] -> (
      match Service.drain svc with
      | _ -> None
      | exception Invalid_argument m -> Some (i, m))
    | j :: rest -> (
      match Service.submit svc j with
      | _ -> surfaced (i + 1) rest
      | exception Invalid_argument m -> Some (i, m))
  in
  let surfaced = surfaced 0 stream in
  Service.shutdown svc;
  match surfaced with
  | None -> Alcotest.fail "the duplicate id was not refused"
  | Some (i, m) ->
    Alcotest.(check bool) ("names the duplicate: " ^ m) true
      (contains m "duplicate job id 9");
    if inline_expected () then
      Alcotest.(check int) "surfaces at its own submit" refused_at i
    else
      Alcotest.(check bool) "not before its own submit" true (i >= refused_at)

(* Inline, the engine's minor collections run inside submit, so an
   inline service grows the caller's minor heap to at least 512k words
   and never shrinks it.  The pool path leaves the caller's heap alone. *)
let test_one_worker_minor_heap () =
  let heap () = (Gc.get ()).minor_heap_size in
  let set w = Gc.set { (Gc.get ()) with minor_heap_size = w } in
  let before = heap () in
  set 4096;
  Service.shutdown (one_worker_service ());
  if inline_expected () then
    Alcotest.(check int) "grown" (1 lsl 19) (heap ())
  else Alcotest.(check int) "pool path leaves it" 4096 (heap ());
  set (1 lsl 20);
  Service.shutdown (one_worker_service ());
  Alcotest.(check int) "never shrunk" (1 lsl 20) (heap ());
  set before

(* ------------------------------------------------------------------ *)
(* Checkpoint-at-arbitrary-cut, for every registry engine               *)
(* ------------------------------------------------------------------ *)

(* The failover property the whole design rests on: cut a checkpoint at
   any point of the stream, restore a fresh service from the manifest
   alone, replay the suffix — decisions and final schedules are
   identical to the uninterrupted run.  With one machine per shard all
   nine registry engines are applicable, so the property is pinned for
   each of them through the sharded path. *)
let test_checkpoint_cut_restore_replay_all_engines () =
  let shards = 3 in
  let jobs = jobs_of 60 ~machines:shards ~seed:21 in
  let params _ = Online.params ~power:p3 ~machines:1 () in
  List.iter
    (fun engine ->
      let name = Online.name engine in
      List.iter
        (fun cut ->
          with_tmp_dir (fun dir ->
              let svc = Service.create ~engine ~params ~shards () in
              let rec go acc i = function
                | [] -> (acc, [])
                | rest when i = cut ->
                  (* settle the pre-cut decisions so the post-cut event
                     lists of both runs start at seq = cut *)
                  let acc = acc @ Service.drain svc in
                  Service.checkpoint svc ~dir;
                  (acc, rest)
                | j :: rest ->
                  go (acc @ Service.submit svc j) (i + 1) rest
              in
              let pre_evs, suffix = go [] 0 jobs in
              (* keep running the original past the cut *)
              let post_evs =
                let evs =
                  List.concat_map (fun j -> Service.submit svc j) suffix
                in
                evs @ Service.drain svc
              in
              let plans = Service.finalize svc in
              Service.shutdown svc;
              ignore pre_evs;
              let manifest = Filename.concat dir Checkpoint.manifest_name in
              let svc' = Service.restore ~manifest () in
              Alcotest.(check int)
                (name ^ ": restored seq") cut (Service.seq svc');
              let replay_evs = feed svc' suffix in
              let plans' = Service.finalize svc' in
              Service.shutdown svc';
              check_ev_lists
                (Printf.sprintf "%s cut=%d: suffix decisions" name cut)
                post_evs replay_evs;
              Array.iteri
                (fun i p ->
                  Alcotest.(check (float 1e-12))
                    (Printf.sprintf "%s cut=%d shard %d energy" name cut i)
                    (Schedule.energy p3 p)
                    (Schedule.energy p3 plans'.(i));
                  Alcotest.(check (list int))
                    (Printf.sprintf "%s cut=%d shard %d rejected" name cut i)
                    p.Schedule.rejected plans'.(i).Schedule.rejected)
                plans))
        [ 0; 17; 59 ])
    Online.all

(* ------------------------------------------------------------------ *)
(* Checkpoint integrity                                                 *)
(* ------------------------------------------------------------------ *)

let test_checkpoint_detects_corruption () =
  with_tmp_dir (fun dir ->
      let params _ = Online.params ~power:p3 ~machines:1 () in
      let svc = Service.create ~engine:Online.pd ~params ~shards:2 () in
      let jobs = jobs_of 20 ~machines:2 ~seed:3 in
      ignore (feed svc jobs);
      Service.checkpoint svc ~dir;
      Service.shutdown svc;
      let manifest = Filename.concat dir Checkpoint.manifest_name in
      (* sanity: it loads before we corrupt it *)
      let mf, snaps = Checkpoint.load ~manifest in
      Alcotest.(check int) "two shards" 2 mf.Checkpoint.shards;
      Alcotest.(check int) "two snapshots" 2 (Array.length snaps);
      (* flip one byte of a shard snapshot *)
      let victim = Filename.concat dir (List.hd mf.Checkpoint.files) in
      let text = read_file victim in
      let b = Bytes.of_string text in
      let i = Bytes.length b / 2 in
      Bytes.set b i (if Bytes.get b i = 'x' then 'y' else 'x');
      write_file victim (Bytes.to_string b);
      (match Checkpoint.load ~manifest with
      | _ -> Alcotest.fail "corrupt checkpoint must not load"
      | exception Failure m ->
        Alcotest.(check bool)
          "names the digest mismatch" true
          (contains m "digest mismatch" || contains m "corrupt"));
      match Service.restore ~manifest () with
      | _ -> Alcotest.fail "restore must refuse a corrupt checkpoint"
      | exception Failure _ -> ())

(* A manifest that passes every syntax check but declares zero shards
   must fail as a bad checkpoint, not reach Pool.create's
   Invalid_argument. *)
let test_checkpoint_rejects_zero_shards () =
  with_tmp_dir (fun dir ->
      let manifest = Filename.concat dir Checkpoint.manifest_name in
      write_file manifest
        "service-manifest v1\nengine pd\nshard-fn id-mix-v1\nshards 0\n\
         seq 0\n";
      (match Checkpoint.load ~manifest with
      | _ -> Alcotest.fail "a zero-shard manifest must not load"
      | exception Failure m ->
        Alcotest.(check bool) "names the shard count" true
          (contains m "shards must be >= 1"));
      match Service.restore ~manifest () with
      | _ -> Alcotest.fail "restore must refuse a zero-shard manifest"
      | exception Failure _ -> ())

let test_checkpoint_prunes_superseded () =
  with_tmp_dir (fun dir ->
      let params _ = Online.params ~power:p3 ~machines:1 () in
      let svc = Service.create ~engine:Online.pd ~params ~shards:2 () in
      let jobs = jobs_of 30 ~machines:2 ~seed:7 in
      List.iteri
        (fun i j ->
          ignore (Service.submit svc j);
          if i = 9 || i = 19 then Service.checkpoint svc ~dir)
        jobs;
      ignore (Service.drain svc);
      Service.shutdown svc;
      let files = Sys.readdir dir in
      let snaps =
        Array.to_list files
        |> List.filter (fun f -> Filename.check_suffix f ".snap")
      in
      (* only the latest checkpoint's shard files survive *)
      Alcotest.(check int) "two snap files" 2 (List.length snaps);
      List.iter
        (fun f ->
          Alcotest.(check bool)
            (f ^ " belongs to the last checkpoint") true
            (String.length f >= 8 && String.sub f 0 8 = "ckpt-20-"))
        snaps)

let () =
  Alcotest.run "service"
    [
      ( "atomic-io",
        [
          Alcotest.test_case "roundtrip" `Quick test_atomic_roundtrip;
          Alcotest.test_case "partial write never observed" `Quick
            test_atomic_partial_never_observed;
        ] );
      ( "pool",
        [
          Alcotest.test_case "per-queue order" `Quick
            test_pool_per_queue_order;
          Alcotest.test_case "migration keeps order" `Quick
            test_pool_migration_keeps_order;
          Alcotest.test_case "poison and shutdown" `Quick
            test_pool_poison_and_shutdown;
        ] );
      ( "service",
        [
          Alcotest.test_case "k=1 equals Online.run" `Quick
            test_service_k1_equals_online_run;
          Alcotest.test_case "worker-count invariance" `Quick
            test_service_worker_count_invariance;
          Alcotest.test_case "migration equivalence" `Quick
            test_service_migration_equivalence;
        ] );
      ( "one worker",
        [
          Alcotest.test_case "submit after shutdown" `Quick
            test_one_worker_submit_after_shutdown;
          Alcotest.test_case "migrate" `Quick test_one_worker_migrate;
          Alcotest.test_case "refusal surfaces" `Quick
            test_one_worker_refusal_surfaces;
          Alcotest.test_case "minor heap" `Quick test_one_worker_minor_heap;
        ] );
      ( "checkpoint",
        [
          Alcotest.test_case "cut/restore/replay, all engines" `Slow
            test_checkpoint_cut_restore_replay_all_engines;
          Alcotest.test_case "corruption detected" `Quick
            test_checkpoint_detects_corruption;
          Alcotest.test_case "prunes superseded" `Quick
            test_checkpoint_prunes_superseded;
          Alcotest.test_case "rejects zero shards" `Quick
            test_checkpoint_rejects_zero_shards;
        ] );
    ]
