(* The psched serve benchmark.

   One run generates a workload from a seed, drives the public functions
   of Pd, Online, Service, Checkpoint and Pool in-process and the
   `psched serve` binary as a child process, checks every decision
   against a per-shard Online.run reference, and prints one JSON result
   line.  Untraced runs (--trace 0) report the end-to-end metrics;
   traced runs (--trace 1) time each layer on the same per-shard arrival
   subsequences and report the layer table.  See perfbench/README.md. *)

open Speedscale_model
module Online = Speedscale_engine.Online
module Pd = Speedscale_core.Pd
module Service = Speedscale_service.Service
module Checkpoint = Speedscale_service.Checkpoint
module Pool = Speedscale_obs.Pool
module Json = Speedscale_obs.Json
module Generate = Speedscale_workload.Generate
module T = Pb_trace
open Pb_util

(* ------------------------------------------------------------------ *)
(* Workloads                                                            *)
(* ------------------------------------------------------------------ *)

let alpha = 3.0
let machines = 8

type workload = {
  name : string;
  shards : int;
  failover : bool;
  size : int;  (** arrivals per pass in a full-size run *)
  gen : power:Power.t -> seed:int -> n:int -> Instance.t;
}

let diurnal ~power ~seed ~n = Generate.diurnal ~power ~machines ~seed ~n ()
let datacenter ~power ~seed ~n = Generate.datacenter ~power ~machines ~seed ~n

let workloads =
  [
    { name = "diurnal-k1"; shards = 1; failover = false; size = 20_000;
      gen = diurnal };
    { name = "datacenter-k4"; shards = 4; failover = false; size = 40_000;
      gen = datacenter };
    { name = "failover-diurnal-k2"; shards = 2; failover = true;
      size = 20_000; gen = diurnal };
  ]

(* ------------------------------------------------------------------ *)
(* Run context and the reference                                        *)
(* ------------------------------------------------------------------ *)

type ctx = {
  wl : workload;
  n : int;
  k : int;
  jobs : Job.t array;
  stream : string;  (** the arrival stream file `psched serve` reads *)
  work : string;
  psched : string;
  params : int -> Online.params;
  shard_of : int array;  (** arrival seq -> shard *)
  ref_acc : bool array;
  ref_lam : int64 array;
  mutable attempted : int;
  mutable failed : int;
}

(* The machine split `psched serve` uses: m/k each, the first m mod k
   shards one more. *)
let shard_machines k i = (machines / k) + if i < machines mod k then 1 else 0

let lambda_bits (d : Online.decision) =
  match d.lambda with Some l -> Int64.bits_of_float l | None -> Int64.min_int

let no_decision : Online.decision =
  { job_id = -1; accepted = false; lambda = None; planned_speed = None }

let note_failures ctx what ~bad ~of_ =
  ctx.attempted <- ctx.attempted + of_;
  ctx.failed <- ctx.failed + bad;
  if bad > 0 then
    Printf.eprintf "perfbench: %s: %d of %d decisions differ from the reference\n%!"
      what bad of_

(* Every decision against the per-shard reference: job id, verdict and
   the bits of λ. *)
let check_decisions ctx what (dec : Online.decision array) =
  let bad = ref 0 in
  for i = 0 to ctx.n - 1 do
    let d = dec.(i) in
    if
      not
        (d.job_id = i
        && Bool.equal d.accepted ctx.ref_acc.(i)
        && Int64.equal (lambda_bits d) ctx.ref_lam.(i))
    then incr bad
  done;
  note_failures ctx what ~bad:!bad ~of_:ctx.n

(* Per-shard Online.run over each shard's arrival subsequence, mapped
   back to global arrival seqs.  Returns (accepted, λ bits, cost/job). *)
let reference ~n ~k ~jobs ~params ~shard_of =
  let acc = Array.make n false and lam = Array.make n 0L in
  let energy = ref 0. in
  for s = 0 to k - 1 do
    let ids = List.filter (fun i -> shard_of.(i) = s) (List.init n Fun.id) in
    if ids <> [] then begin
      let p : Online.params = params s in
      let sub =
        Instance.make ~power:p.power ~machines:p.machines
          (List.map (fun i -> jobs.(i)) ids)
      in
      let r = Online.run Online.pd sub in
      List.iter2
        (fun i (d : Online.decision) ->
          acc.(i) <- d.accepted;
          lam.(i) <- lambda_bits d)
        ids r.Online.decisions;
      energy := !energy +. Schedule.energy p.power r.Online.schedule
    end
  done;
  let lost = ref 0. in
  Array.iteri (fun i (j : Job.t) -> if not acc.(i) then lost := !lost +. j.value) jobs;
  (acc, lam, (!energy +. !lost) /. float_of_int n)

(* The paper's objective per job: (Σ shard energy + lost value) / n. *)
let cost_of ctx (plans : Schedule.t array) =
  let energy = ref 0. and lost = ref 0. in
  Array.iteri
    (fun i (plan : Schedule.t) ->
      energy := !energy +. Schedule.energy (ctx.params i).Online.power plan;
      List.iter (fun id -> lost := !lost +. ctx.jobs.(id).Job.value) plan.rejected)
    plans;
  (!energy +. !lost) /. float_of_int ctx.n

(* ------------------------------------------------------------------ *)
(* Service passes                                                       *)
(* ------------------------------------------------------------------ *)

let create ?(engine = Online.pd) ctx =
  Service.create ~workers:1 ~engine ~params:ctx.params ~shards:ctx.k ()

(* PD behind a span around every engine arrival, recorded into [wbuf] by
   the worker domain.  Everything else is the registry engine itself. *)
let traced_engine wbuf : Online.engine =
  let module E = (val Online.pd : Online.ONLINE) in
  (module struct
    include E

    let arrive st (j : Job.t) =
      let t0 = now () in
      let d = E.arrive st j in
      ignore (T.add wbuf T.Engine_arrive ~start:t0 ~stop:(now ()) ~parent:(-1) ~seq:j.id);
      d
  end : Online.ONLINE)

let recorder n =
  let dec = Array.make n no_decision in
  let take evs = List.iter (fun (ev : Service.ev) -> dec.(ev.seq) <- ev.decision) evs in
  (dec, take)

(* Service.finalize three times: it only reads the engines' state, so
   every call does the same work, and three samples steady the median.
   Only the first call's schedules are kept. *)
let finalize3 svc =
  let timed f =
    let t0 = now () in
    let r = f () in
    (now () -. t0, r)
  in
  let t1, plans = timed (fun () -> Service.finalize svc) in
  let rest = List.init 2 (fun _ -> fst (timed (fun () -> ignore (Service.finalize svc)))) in
  (t1 :: rest, plans)

let checkpoint_bytes dir =
  let manifest = Filename.concat dir Checkpoint.manifest_name in
  let mf, _ = Checkpoint.load ~manifest in
  List.fold_left
    (fun acc f -> acc + file_size (Filename.concat dir f))
    (file_size manifest) mf.Checkpoint.files

type flood = {
  wall : float;  (** first submit to last decision *)
  rss_mb : float;  (** peak RSS when the last decision was out *)
  chunk_s : float array;  (** the same, per chunk of the stream *)
  fin : float list;  (** Service.finalize *)
  ckpt : float list;  (** three end-of-stream Service.checkpoint calls *)
  ckpt_bytes : int;
  cost : float;
  in_service_engine : float;  (** Σ engine.arrive spans on the worker *)
  dec : Online.decision array;
}

(* A flood pass is timed in this many consecutive chunks, each drained
   before the next starts.  Summing per-chunk medians over the rounds of
   a run filters a noisy moment out of one chunk instead of letting it
   move the whole pass. *)
let chunks = 20

(* All arrivals submitted as fast as backpressure allows. *)
let flood ?tr ctx =
  let wbuf = T.create "worker" in
  let engine = match tr with None -> Online.pd | Some _ -> traced_engine wbuf in
  let dec, take = recorder ctx.n in
  let chunk_s = Array.make chunks 0. in
  Gc.compact ();
  let svc = create ~engine ctx in
  let root = match tr with Some b -> T.open_ b T.Service_flood ~parent:(-1) | None -> -1 in
  let spanned name ~seq f =
    match tr with Some b -> T.span b name ~parent:root ~seq f | None -> f ()
  in
  let t0 = now () in
  for c = 0 to chunks - 1 do
    let tc = now () in
    for i = c * ctx.n / chunks to ((c + 1) * ctx.n / chunks) - 1 do
      spanned T.Service_submit ~seq:i (fun () -> take (Service.submit svc ctx.jobs.(i)))
    done;
    spanned T.Service_drain ~seq:(-1) (fun () -> take (Service.drain svc));
    chunk_s.(c) <- now () -. tc
  done;
  let t1 = now () in
  let rss_mb = peak_rss_mb () in
  Option.iter (fun b -> T.close b root) tr;
  let fin, plans = finalize3 svc in
  let dir = Filename.concat ctx.work "ckpt-flood" in
  clear_dir dir;
  let ckpt =
    List.init 3 (fun _ ->
        let t = now () in
        Service.checkpoint svc ~dir;
        now () -. t)
  in
  Service.shutdown svc;
  {
    wall = t1 -. t0;
    rss_mb;
    chunk_s;
    fin;
    ckpt;
    ckpt_bytes = checkpoint_bytes dir;
    cost = cost_of ctx plans;
    in_service_engine = T.total_of wbuf T.Engine_arrive;
    dec;
  }

(* Closed loop: one client, one outstanding arrival.  Each sample runs
   from submit until drain has returned that arrival's decision. *)
let closed ?tr ctx =
  let dec, take = recorder ctx.n in
  let lat = Array.make ctx.n 0. in
  Gc.compact ();
  let svc = create ctx in
  Array.iteri
    (fun i j ->
      let t0 = now () in
      let a = Service.submit svc j in
      let b = Service.drain svc in
      let t1 = now () in
      lat.(i) <- t1 -. t0;
      (match tr with
      | Some buf -> ignore (T.add buf T.Service_roundtrip ~start:t0 ~stop:t1 ~parent:(-1) ~seq:i)
      | None -> ());
      take a;
      take b)
    ctx.jobs;
  let fin, _ = finalize3 svc in
  Service.shutdown svc;
  (lat, dec, fin)

type failover = {
  restore : float;  (** Service.restore from the last manifest *)
  ckpts : float list;  (** every Service.checkpoint call *)
  last_bytes : int;
  stitched : Online.decision array;
  fo_cost : float;
}

(* Checkpoint every n/10 arrivals, stop at 3n/4, restore from the last
   manifest and feed the suffix. *)
let failover ctx =
  let every = max 1 (ctx.n / 10) and cut = 3 * ctx.n / 4 in
  let dir = Filename.concat ctx.work "ckpt-failover" in
  clear_dir dir;
  let dec, take = recorder ctx.n in
  Gc.compact ();
  let svc = create ctx in
  let ckpts = ref [] in
  for i = 0 to cut - 1 do
    take (Service.submit svc ctx.jobs.(i));
    if (i + 1) mod every = 0 then begin
      let t0 = now () in
      Service.checkpoint svc ~dir;
      ckpts := (now () -. t0) :: !ckpts
    end
  done;
  take (Service.drain svc);
  Service.shutdown svc;
  let last_bytes = checkpoint_bytes dir in
  Gc.compact ();
  let t0 = now () in
  let svc =
    Service.restore ~workers:1
      ~manifest:(Filename.concat dir Checkpoint.manifest_name) ()
  in
  let restore = now () -. t0 in
  let from = Service.seq svc in
  let stitched, take2 = recorder ctx.n in
  Array.blit dec 0 stitched 0 from;
  for i = from to ctx.n - 1 do
    take2 (Service.submit svc ctx.jobs.(i))
  done;
  take2 (Service.drain svc);
  let plans = Service.finalize svc in
  Service.shutdown svc;
  { restore; ckpts = List.rev !ckpts; last_bytes; stitched; fo_cost = cost_of ctx plans }

(* Service.create until it can take its first arrival. *)
let setup_samples ctx reps =
  List.init reps (fun _ ->
      let t0 = now () in
      let svc = create ctx in
      let dt = now () -. t0 in
      Service.shutdown svc;
      dt)

(* ------------------------------------------------------------------ *)
(* psched serve                                                         *)
(* ------------------------------------------------------------------ *)

let rec wait_child pid =
  match Unix.waitpid [] pid with
  | r -> r
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_child pid

(* Wall time of one `psched serve --workers 1` over the stream file,
   decision records written to [out]. *)
let serve ctx ~summary_only ~out =
  let args =
    [ ctx.psched; "serve"; ctx.stream; "--shards"; string_of_int ctx.k;
      "--workers"; "1" ]
    @ if summary_only then [ "--summary-only" ] else []
  in
  let fd = Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let t0 = now () in
  let pid =
    Unix.create_process ctx.psched (Array.of_list args) Unix.stdin fd Unix.stderr
  in
  let _, status = wait_child pid in
  let dt = now () -. t0 in
  Unix.close fd;
  (match status with
  | Unix.WEXITED 0 -> ()
  | _ -> fail "psched serve failed on %s" ctx.stream);
  dt

(* Parse the serve record file (pretty-printed objects, each closed by a
   "}" line) and compare every decision record with the in-process
   decisions; the stream must end with k shard summaries and a global
   one covering all n arrivals. *)
let check_serve_output ctx path (dec : Online.decision array) =
  let records = ref [] and cur = Buffer.create 256 in
  List.iter
    (fun line ->
      Buffer.add_string cur line;
      Buffer.add_char cur '\n';
      if line = "}" then begin
        (match Json.of_string (Buffer.contents cur) with
        | Ok j -> records := j :: !records
        | Error e -> fail "bad JSON in %s: %s" path e);
        Buffer.clear cur
      end)
    (String.split_on_char '\n' (read_file path));
  let int_field name j =
    match Option.map Json.to_int (Json.member name j) with
    | Some (Ok v) -> Some v
    | _ -> None
  in
  let float_bits name j =
    match Option.map Json.to_float (Json.member name j) with
    | Some (Ok v) -> Int64.bits_of_float v
    | _ -> Int64.min_int
  in
  let opt_bits = function Some v -> Int64.bits_of_float v | None -> Int64.min_int in
  let next = ref 0 and bad = ref 0 and summaries = ref 0 and jobs = ref (-1) in
  List.iter
    (fun j ->
      match int_field "seq" j with
      | Some seq ->
        let d = if seq >= 0 && seq < ctx.n then dec.(seq) else no_decision in
        let ok =
          seq = !next
          && int_field "job" j = Some d.job_id
          && int_field "shard" j = Some ctx.shard_of.(seq)
          && Json.member "accepted" j = Some (Json.Bool d.accepted)
          && Int64.equal (float_bits "lambda" j) (lambda_bits d)
          && Int64.equal (float_bits "planned_speed" j) (opt_bits d.planned_speed)
        in
        if not ok then incr bad;
        incr next
      | None ->
        incr summaries;
        if Json.member "summary" j <> None then
          jobs := Option.value (int_field "jobs" j) ~default:(-1))
    (List.rev !records);
  if !next <> ctx.n || !summaries <> ctx.k + 1 || !jobs <> ctx.n then
    fail "%s: %d decision records, %d summaries, %d jobs; want %d, %d, %d" path
      !next !summaries !jobs ctx.n (ctx.k + 1) ctx.n;
  note_failures ctx "psched serve records" ~bad:!bad ~of_:ctx.n

(* ------------------------------------------------------------------ *)
(* Layer passes (traced run)                                            *)
(* ------------------------------------------------------------------ *)

type layers = {
  core_lat : float array;
  core_busy : float;
  counters : (string * float) list;  (** deterministic Pd.stats / Pd.mem *)
  eng_lat : float array;
  eng_busy : float;
  eng_finalize : float;
  eng_snapshot : float;
  eng_restore : float;
  snaps : string array;
}

(* Bare Pd, created as Online.pd creates it (~gc:true), and the
   Online.pd engine that wraps its own Pd, fed each shard's subsequence
   in global arrival order.  Each arrival goes to the core and to the
   engine back to back, so both see the same moment of the host and
   their difference, the wrapper's cost, is not buried in the drift
   between two separate passes.  The second call runs on warm caches and
   branch predictors, so the order alternates between arrivals.  Then
   every engine shard is finalized, snapshot and restored. *)
let layer_pass ctx b =
  Gc.compact ();
  let root = T.open_ b T.Layer_pass ~parent:(-1) in
  let pds =
    Array.init ctx.k (fun s ->
        let p = ctx.params s in
        Pd.create ~gc:true ~power:p.power ~machines:p.machines ())
  in
  let states = Array.init ctx.k (fun s -> Online.start Online.pd (ctx.params s)) in
  let core_lat = Array.make ctx.n 0. and eng_lat = Array.make ctx.n 0. in
  let dec = Array.make ctx.n no_decision in
  let bad = ref 0 and accepted = ref 0 in
  Array.iteri
    (fun i j ->
      let s = ctx.shard_of.(i) in
      let core () =
        let t0 = now () in
        let d = Pd.arrive pds.(s) j in
        let t1 = now () in
        ignore (T.add b T.Core_arrive ~start:t0 ~stop:t1 ~parent:root ~seq:i);
        core_lat.(i) <- t1 -. t0;
        d
      in
      let engine () =
        let t0 = now () in
        dec.(i) <- Online.arrive states.(s) j;
        let t1 = now () in
        ignore (T.add b T.Engine_arrive ~start:t0 ~stop:t1 ~parent:root ~seq:i);
        eng_lat.(i) <- t1 -. t0
      in
      let d =
        if i land 1 = 0 then begin
          let d = core () in
          engine ();
          d
        end
        else begin
          engine ();
          core ()
        end
      in
      if d.Pd.accepted then incr accepted;
      if
        not
          (Bool.equal d.Pd.accepted ctx.ref_acc.(i)
          && Int64.equal (Int64.bits_of_float d.Pd.lambda) ctx.ref_lam.(i))
      then incr bad)
    ctx.jobs;
  note_failures ctx "core Pd.arrive" ~bad:!bad ~of_:ctx.n;
  check_decisions ctx "engine Online.arrive" dec;
  let timed name f xs =
    let t0 = now () in
    let r = Array.map (fun x -> T.span b name ~parent:root (fun () -> f x)) xs in
    (r, now () -. t0)
  in
  let _, fin = timed T.Engine_finalize Online.finalize states in
  let snaps, snap = timed T.Engine_snapshot Online.snapshot states in
  let back, rest = timed T.Engine_restore Online.restore snaps in
  Array.iteri
    (fun s st ->
      if not (String.equal (Online.snapshot st) snaps.(s)) then
        fail "shard %d: restore does not reproduce its snapshot" s)
    back;
  T.close b root;
  let tot f = Array.fold_left (fun acc pd -> acc + f pd) 0 pds in
  let mx f = Array.fold_left (fun acc pd -> max acc (f pd)) 0 pds in
  let per_arrival f = float_of_int (tot f) /. float_of_int ctx.n in
  {
    core_lat;
    core_busy = sum core_lat;
    counters =
      [
        ("core.probes_per_arrival", per_arrival (fun pd -> (Pd.stats pd).probes));
        ("core.intervals_per_arrival", per_arrival (fun pd -> (Pd.stats pd).intervals));
        ( "core.breakpoints_per_arrival",
          per_arrival (fun pd -> (Pd.stats pd).breakpoints) );
        ( "core.max_live_intervals",
          float_of_int (mx (fun pd -> (Pd.mem pd).max_live_intervals)) );
        ( "core.max_table_entries",
          float_of_int (mx (fun pd -> (Pd.mem pd).max_table_entries)) );
        ("core.accept_frac", float_of_int !accepted /. float_of_int ctx.n);
      ];
    eng_lat;
    eng_busy = sum eng_lat;
    eng_finalize = fin;
    eng_snapshot = snap;
    eng_restore = rest;
    snaps;
  }

let pool_roundtrip_us b =
  let p = Pool.create ~workers:1 ~queues:1 () in
  let samples =
    Array.init 2000 (fun _ ->
        let t0 = now () in
        if not (Pool.submit p ~queue:0 (fun () -> ())) then
          fail "Pool.submit refused a task on an empty queue";
        Pool.quiesce p;
        let t1 = now () in
        ignore (T.add b T.Pool_roundtrip ~start:t0 ~stop:t1 ~parent:(-1) ~seq:(-1));
        (t1 -. t0) *. 1e6)
  in
  Pool.shutdown p;
  median samples

(* Checkpoint.write of the engine pass's snapshots, then Checkpoint.load
   with digest verification; three of each. *)
let checkpoint_layer ctx b snaps =
  let dir = Filename.concat ctx.work "ckpt-layer" in
  clear_dir dir;
  let manifest = Filename.concat dir Checkpoint.manifest_name in
  let time name f =
    median
      (Array.init 3 (fun _ ->
           let t0 = now () in
           T.span b name ~parent:(-1) f;
           now () -. t0))
  in
  let write_s =
    time T.Checkpoint_write (fun () ->
        Checkpoint.write ~dir ~engine:"pd" ~shard_fn:(fst Service.default_shard_fn)
          ~seq:ctx.n snaps)
  in
  let load_s =
    time T.Checkpoint_load (fun () ->
        let _, back = Checkpoint.load ~manifest in
        if back <> snaps then fail "Checkpoint.load returned other snapshots")
  in
  (write_s, load_s, Array.length (Sys.readdir dir))

(* ------------------------------------------------------------------ *)
(* Rounds                                                               *)
(* ------------------------------------------------------------------ *)

(* Metric samples, one list per name, newest first. *)
type samples = (string, float list) Hashtbl.t

let push (acc : samples) name v =
  Hashtbl.replace acc name (v :: Option.value (Hashtbl.find_opt acc name) ~default:[])

(* Values that must repeat bit for bit, within a run and across runs. *)
type fingerprint = (string, float) Hashtbl.t

let pin (fp : fingerprint) name v =
  match Hashtbl.find_opt fp name with
  | Some w when not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w)) ->
    fail "determinism: %s was %h and is now %h on the same input" name w v
  | _ -> Hashtbl.replace fp name v

type serve_pin = { mutable digest : string option }

let serve_and_check ctx fp sp dec ~summary_only =
  let out =
    Filename.concat ctx.work (if summary_only then "serve-summary.json" else "serve.json")
  in
  let dt = serve ctx ~summary_only ~out in
  if not summary_only then begin
    let d = Digest.to_hex (Digest.file out) in
    (match sp.digest with
    | None ->
      check_serve_output ctx out dec;
      sp.digest <- Some d
    | Some d0 ->
      if not (String.equal d d0) then
        fail "determinism: psched serve output changed between rounds";
      ctx.attempted <- ctx.attempted + ctx.n);
    pin fp "cli.output_bytes" (float_of_int (file_size out))
  end;
  dt

let push_chunks acc prefix (fl : flood) =
  Array.iteri (fun c t -> push acc (Printf.sprintf "%s.chunk%02d_s" prefix c) t) fl.chunk_s

let untraced_round ctx acc fp sp =
  let n = float_of_int ctx.n in
  if not ctx.wl.failover then
    List.iter (push acc "setup_s") (setup_samples ctx 50);
  let fl = flood ctx in
  check_decisions ctx "flood" fl.dec;
  push_chunks acc "flood" fl;
  List.iter (push acc "finalize_s") fl.fin;
  pin fp "cost_per_job" fl.cost;
  let lat, cdec, cfin = closed ctx in
  check_decisions ctx "closed loop" cdec;
  List.iter (push acc "finalize_s") cfin;
  push acc "decision_p50_us" (quantile lat 0.5 *. 1e6);
  push acc "decision_p99_us" (quantile lat 0.99 *. 1e6);
  push acc "serve_aps" (n /. serve_and_check ctx fp sp fl.dec ~summary_only:false);
  if ctx.wl.failover then begin
    let fo = failover ctx in
    check_decisions ctx "failover (stitched)" fo.stitched;
    pin fp "cost_per_job" fo.fo_cost;
    push acc "setup_s" fo.restore;
    List.iter (push acc "checkpoint_s") fo.ckpts;
    pin fp "checkpoint_bytes" (float_of_int fo.last_bytes)
  end
  else begin
    List.iter (push acc "checkpoint_s") fl.ckpt;
    pin fp "checkpoint_bytes" (float_of_int fl.ckpt_bytes)
  end

let traced_round ctx acc fp sp ~main =
  let n = float_of_int ctx.n in
  let us x = x /. n *. 1e6 in
  T.clear main;
  let ly = layer_pass ctx main in
  List.iter (fun (name, v) -> pin fp name v) ly.counters;
  push acc "core.arrive_p50_us" (quantile ly.core_lat 0.5 *. 1e6);
  push acc "core.arrive_p99_us" (quantile ly.core_lat 0.99 *. 1e6);
  push acc "core.busy_s" ly.core_busy;
  let eng_p50 = quantile ly.eng_lat 0.5 *. 1e6 in
  push acc "engine.arrive_p50_us" eng_p50;
  push acc "engine.busy_s" ly.eng_busy;
  push acc "engine.wrapper_us" (us (ly.eng_busy -. ly.core_busy));
  push acc "engine.finalize_s" ly.eng_finalize;
  push acc "engine.snapshot_s" ly.eng_snapshot;
  push acc "engine.restore_s" ly.eng_restore;
  pin fp "engine.snapshot_bytes"
    (float_of_int (Array.fold_left (fun a s -> a + String.length s) 0 ly.snaps));
  let traced = flood ~tr:main ctx in
  check_decisions ctx "traced flood" traced.dec;
  let plain = flood ctx in
  check_decisions ctx "flood" plain.dec;
  pin fp "cost_per_job" plain.cost;
  push_chunks acc "traced" traced;
  push_chunks acc "plain" plain;
  push acc "in_service_engine_s" traced.in_service_engine;
  let lat, cdec, _ = closed ~tr:main ctx in
  check_decisions ctx "traced closed loop" cdec;
  push acc "service.handoff_us" ((quantile lat 0.5 *. 1e6) -. eng_p50);
  push acc "decision.samples" (float_of_int (Array.length lat));
  push acc "pool.roundtrip_us" (pool_roundtrip_us main);
  let write_s, load_s, files = checkpoint_layer ctx main ly.snaps in
  push acc "checkpoint.write_s" write_s;
  push acc "checkpoint.load_s" load_s;
  push acc "checkpoint.files" (float_of_int files);
  let summary =
    T.span main T.Cli_serve_summary ~parent:(-1) (fun () ->
        serve_and_check ctx fp sp plain.dec ~summary_only:true)
  in
  let full =
    T.span main T.Cli_serve ~parent:(-1) (fun () ->
        serve_and_check ctx fp sp plain.dec ~summary_only:false)
  in
  push acc "cli.parse_us" (us (summary -. plain.wall));
  push acc "cli.emit_us" (us (full -. summary))

(* ------------------------------------------------------------------ *)
(* One run                                                              *)
(* ------------------------------------------------------------------ *)

type metric = { mname : string; unit_ : string; value : float }

type result = {
  correct : bool;
  attempted : int;
  failed : int;
  metrics : metric list;
}

let end_to_end_units =
  [
    ("throughput_aps", "1/s"); ("serve_aps", "1/s"); ("decision_p50_us", "us");
    ("decision_p99_us", "us"); ("finalize_s", "s"); ("setup_s", "s");
    ("checkpoint_s", "s"); ("checkpoint_bytes", "B"); ("peak_rss_mb", "MB");
    ("cost_per_job", "cost/job"); ("correct_frac", "ratio");
  ]

let per_layer_units =
  [
    ("core.arrive_p50_us", "us"); ("core.arrive_p99_us", "us");
    ("core.busy_s", "s"); ("core.probes_per_arrival", "count");
    ("core.intervals_per_arrival", "count");
    ("core.breakpoints_per_arrival", "count");
    ("core.max_live_intervals", "count"); ("core.max_table_entries", "count");
    ("core.accept_frac", "ratio"); ("engine.arrive_p50_us", "us");
    ("engine.busy_s", "s"); ("engine.wrapper_us", "us");
    ("engine.finalize_s", "s"); ("engine.snapshot_s", "s");
    ("engine.snapshot_bytes", "B"); ("engine.restore_s", "s");
    ("service.overhead_us", "us"); ("service.handoff_us", "us");
    ("service.shard_skew", "ratio"); ("service.engine_inflation", "ratio");
    ("pool.roundtrip_us", "us");
    ("checkpoint.write_s", "s"); ("checkpoint.load_s", "s");
    ("checkpoint.files", "count"); ("cli.parse_us", "us");
    ("cli.emit_us", "us"); ("cli.output_bytes", "B");
    ("decision.samples", "count"); ("host.calib_ms", "ms");
    ("host.nproc", "count"); ("trace.unexplained_frac", "ratio");
    ("trace.overhead_frac", "ratio");
  ]

(* Deterministic values are pinned in a file keyed by workload, seed,
   size and the digests of both executables, so a later run of the same
   build on the same input must reproduce them bit for bit. *)
let check_fingerprint ~path (fp : fingerprint) =
  let old =
    if Sys.file_exists path then
      String.split_on_char '\n' (read_file path)
      |> List.filter_map (fun l ->
             match String.split_on_char ' ' l with
             | [ k; v ] -> Some (k, float_of_string v)
             | _ -> None)
    else []
  in
  List.iter
    (fun (k, v) ->
      match Hashtbl.find_opt fp k with
      | Some w when not (Int64.equal (Int64.bits_of_float v) (Int64.bits_of_float w)) ->
        fail "determinism: %s was %h in an earlier run and is %h now (%s)" k v w path
      | Some _ -> ()
      | None -> Hashtbl.replace fp k v)
    old;
  let lines =
    Hashtbl.fold (fun k v acc -> Printf.sprintf "%s %h" k v :: acc) fp []
    |> List.sort String.compare
  in
  write_file path (String.concat "\n" lines ^ "\n")

let run_workload ~verbose ~wl ~seed ~n ~seconds ~trace ~psched ~work =
  let log fmt = if verbose then Printf.eprintf fmt else Printf.ifprintf stderr fmt in
  mkdir_p work;
  let nproc = Domain.recommended_domain_count () in
  let calib = calib_ms () in
  log
    "perfbench: host nproc=%d cpus=%s ocaml=%s loadavg=%s calib_ms=%.3f; workload=%s seed=%d n=%d trace=%b\n%!"
    nproc (cpus_allowed ()) Sys.ocaml_version (loadavg ()) calib wl.name seed n trace;
  (* Inputs exist before any timed region; both the in-process passes and
     `psched serve` read the same saved stream. *)
  let power = Power.make alpha in
  let stream = Filename.concat work (Printf.sprintf "stream-%s-s%d-n%d.txt" wl.name seed n) in
  Io.save stream (wl.gen ~power ~seed ~n);
  let inst = Io.load stream in
  let jobs = Array.init (Instance.n_jobs inst) (Instance.job inst) in
  let k = wl.shards in
  let params i = Online.params ~power ~machines:(shard_machines k i) () in
  let route = snd Service.default_shard_fn in
  let shard_of = Array.map (fun j -> route j k) jobs in
  let pre =
    { wl; n; k; jobs; stream; work; psched; params; shard_of;
      ref_acc = [||]; ref_lam = [||]; attempted = 0; failed = 0 }
  in
  (* Warm-up flood: heap and code warm, and the peak RSS when its last
     decision is out. *)
  let warm = flood pre in
  let ref_acc, ref_lam, ref_cost = reference ~n ~k ~jobs ~params ~shard_of in
  let ctx = { pre with ref_acc; ref_lam } in
  check_decisions ctx "warm-up flood" warm.dec;
  if Float.abs (warm.cost -. ref_cost) > 1e-9 *. Float.abs ref_cost then begin
    Printf.eprintf "perfbench: service cost/job %.17g, reference %.17g\n%!" warm.cost ref_cost;
    ctx.failed <- ctx.failed + 1
  end;
  ctx.attempted <- ctx.attempted + 1;
  let fp : fingerprint = Hashtbl.create 16 in
  pin fp "cost_per_job" warm.cost;
  let sizes = Array.make k 0 in
  Array.iter (fun s -> sizes.(s) <- sizes.(s) + 1) shard_of;
  pin fp "service.shard_skew"
    (float_of_int (Array.fold_left max 0 sizes) *. float_of_int k /. float_of_int n);
  let acc : samples = Hashtbl.create 32 in
  let sp = { digest = None } in
  let main = T.create "main" in
  let t_start = now () in
  let rounds = ref 0 and last = ref 0. in
  while !rounds = 0 || now () -. t_start +. !last <= seconds do
    let t0 = now () in
    if trace then traced_round ctx acc fp sp ~main
    else untraced_round ctx acc fp sp;
    last := now () -. t0;
    incr rounds
  done;
  log "perfbench: %d rounds in %.2f s\n%!" !rounds (now () -. t_start);
  Hashtbl.fold (fun k l a -> (k, List.rev l) :: a) acc []
  |> List.filter (fun (k, _) ->
         not (List.exists (String.starts_with ~prefix:"chunk") (String.split_on_char '.' k)))
  |> List.sort compare
  |> List.iter (fun (k, l) ->
         log "perfbench:   %-24s %s\n" k
           (String.concat " " (List.map (Printf.sprintf "%.4g") l)));
  let exe = Digest.to_hex (Digest.string (Digest.file Sys.executable_name ^ Digest.file psched)) in
  check_fingerprint
    ~path:
      (Filename.concat work
         (Printf.sprintf "fingerprint-%s-s%d-n%d-%s.txt" wl.name seed n
            (String.sub exe 0 12)))
    fp;
  let value name =
    match Hashtbl.find_opt acc name with
    | Some l -> median_l l
    | None -> (
      match Hashtbl.find_opt fp name with
      | Some v -> v
      | None -> fail "metric %s was not measured" name)
  in
  (* Closed-loop latency has a fast host mode: some rounds, often one or
     two in seven, read p50 ~25% and p99 ~45% lower than the rest.  The
     median over rounds flips when such rounds are near half, so latency
     is the upper quartile over rounds: the value three rounds in four
     meet. *)
  let slow_quartile name =
    match Hashtbl.find_opt acc name with
    | Some l -> quantile (Array.of_list l) 0.75
    | None -> fail "metric %s was not measured" name
  in
  (* A flood's wall, robust to a noisy moment: the sum over chunks of
     each chunk's median over the rounds. *)
  let flood_wall prefix =
    sum (Array.init chunks (fun c -> value (Printf.sprintf "%s.chunk%02d_s" prefix c)))
  in
  (* The outside-in layer table of the in-process stack.  Every row is a
     difference of measured span totals, so the rows add up to the traced
     flood's wall; what they leave unexplained of the untraced wall is
     what tracing changed. *)
  let layer_rows () =
    let core = value "core.busy_s" and eng = value "engine.busy_s" in
    let in_service = value "in_service_engine_s" in
    [
      ("core (Pd.arrive)", core);
      ("engine wrapper (Online.arrive - Pd.arrive)", eng -. core);
      ("engine slowdown inside the service", in_service -. eng);
      ("service (traced flood - engine spans on the worker)",
       flood_wall "traced" -. in_service);
    ]
  in
  let correct_frac =
    float_of_int (ctx.attempted - ctx.failed) /. float_of_int ctx.attempted
  in
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          let v =
            match name with
            | "host.calib_ms" -> calib
            | "host.nproc" -> float_of_int nproc
            | "service.overhead_us" ->
              (flood_wall "plain" -. value "engine.busy_s") /. float_of_int n *. 1e6
            | "service.engine_inflation" ->
              value "in_service_engine_s" /. value "engine.busy_s"
            | "trace.unexplained_frac" ->
              let explained = List.fold_left (fun a (_, v) -> a +. v) 0. (layer_rows ()) in
              Float.abs (explained -. flood_wall "plain") /. flood_wall "plain"
            | "trace.overhead_frac" -> 1. -. (flood_wall "plain" /. flood_wall "traced")
            | _ -> value name
          in
          { mname = name; unit_; value = v })
        per_layer_units
    else
      List.map
        (fun (name, unit_) ->
          let v =
            match name with
            | "peak_rss_mb" -> warm.rss_mb
            | "throughput_aps" -> float_of_int n /. flood_wall "flood"
            | "correct_frac" -> correct_frac
            | "decision_p50_us" | "decision_p99_us" -> slow_quartile name
            | _ -> value name
          in
          { mname = name; unit_; value = v })
        end_to_end_units
  in
  List.iter
    (fun m -> if not (Float.is_finite m.value) then fail "metric %s is %h" m.mname m.value)
    metrics;
  (* The run record and, for a traced run, the layer table (medians over
     the rounds) and the last round's spans. *)
  let tag = Printf.sprintf "%s-s%d-n%d-t%d" wl.name seed n (if trace then 1 else 0) in
  let oc = open_out (Filename.concat work ("run-" ^ tag ^ ".txt")) in
  Printf.fprintf oc "host nproc=%d cpus=%s ocaml=%s loadavg=%s calib_ms=%.6f rounds=%d\n"
    nproc (cpus_allowed ()) Sys.ocaml_version (loadavg ()) calib !rounds;
  List.iter (fun m -> Printf.fprintf oc "%s %.17g %s\n" m.mname m.value m.unit_) metrics;
  close_out oc;
  if trace then begin
    let wall = flood_wall "plain" in
    let oc = open_out (Filename.concat work ("trace-" ^ tag ^ ".jsonl")) in
    Printf.fprintf oc "# layer table (self seconds); untraced flood wall %.6f s\n" wall;
    List.iter
      (fun (layer, self) ->
        Printf.fprintf oc "# %-52s %10.6f  %5.1f%%\n" layer self (100. *. self /. wall);
        log "perfbench: layer %-52s %10.6f s  %5.1f%%\n" layer self (100. *. self /. wall))
      (layer_rows ());
    List.iter
      (fun (nm, count, total, self) ->
        Printf.fprintf oc "# span %-20s count %7d total %10.6f self %10.6f\n"
          (T.string_of_name nm) count total self)
      (T.totals main);
    T.write_spans oc main;
    close_out oc
  end;
  { correct = ctx.failed = 0 && ctx.attempted > 0; attempted = ctx.attempted;
    failed = ctx.failed; metrics }

let result_json r =
  let metric m =
    Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" m.mname m.value m.unit_
  in
  Printf.sprintf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    r.correct r.attempted r.failed
    (String.concat ", " (List.map metric r.metrics))

(* ------------------------------------------------------------------ *)
(* Command line                                                         *)
(* ------------------------------------------------------------------ *)

let find_workload name =
  match List.find_opt (fun w -> w.name = name) workloads with
  | Some w -> w
  | None ->
    fail "unknown workload %S (known: %s)" name
      (String.concat ", " (List.map (fun w -> w.name) workloads))

(* Every workload at a tiny size, untraced twice (the second run must
   reproduce the first one's pinned values) and traced once. *)
let smoke ~psched ~work =
  remove_tree work;
  let ok = ref true in
  List.iter
    (fun wl ->
      List.iter
        (fun trace ->
          let r = run_workload ~verbose:false ~wl ~seed:7 ~n:240 ~seconds:0. ~trace ~psched ~work in
          Printf.printf "smoke %-20s trace=%b correct=%b attempted=%d failed=%d\n%!"
            wl.name trace r.correct r.attempted r.failed;
          if not r.correct then ok := false)
        [ false; false; true ])
    workloads;
  remove_tree work;
  if not !ok then exit 1

let () =
  let mode = ref "" and workload = ref "" and seed = ref 1 and seconds = ref 10.
  and trace = ref 0 and psched = ref "" and work = ref ".perfbench" in
  let spec =
    [
      ("--workload", Arg.Set_string workload, "NAME  workload to run");
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_float seconds, "S  measuring time");
      ("--trace", Arg.Set_int trace, "0|1  untraced end-to-end or traced layer run");
      ("--psched", Arg.Set_string psched, "PATH  the psched executable");
      ("--work-dir", Arg.Set_string work, "DIR  scratch directory");
    ]
  in
  Arg.parse spec (fun m -> mode := m) "pbench (run|smoke) [options]";
  if !psched = "" then fail "--psched is required";
  match !mode with
  | "run" ->
    let wl = find_workload !workload in
    let r =
      run_workload ~verbose:true ~wl ~seed:!seed ~n:wl.size ~seconds:!seconds
        ~trace:(!trace = 1) ~psched:!psched ~work:!work
    in
    print_endline (result_json r)
  | "smoke" -> smoke ~psched:!psched ~work:!work
  | m -> fail "unknown mode %S (run|smoke)" m
