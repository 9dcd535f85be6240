(* psched — command-line front end for the profitable speed-scaling
   scheduler library.

     psched generate --preset datacenter -n 40 -m 4 -o inst.txt
     psched run inst.txt --algorithm pd --show-schedule
     psched stream inst.txt --algorithm pd
     psched compare inst.txt
     psched certify inst.txt

   Instances are plain text (see Io); every run is validated against the
   model's feasibility rules before anything is reported. *)

open Cmdliner
open Speedscale_model
open Speedscale_sim
module Online = Speedscale_engine.Online
module Json = Speedscale_obs.Json
module Service = Speedscale_service.Service
module Checkpoint = Speedscale_service.Checkpoint

(* ------------------------------------------------------------------ *)
(* Shared arguments                                                     *)
(* ------------------------------------------------------------------ *)

let instance_arg =
  let doc = "Instance file (format: see `psched generate`)." in
  Arg.(required & pos 0 (some file) None & info [] ~docv:"INSTANCE" ~doc)

let algorithm_conv =
  let parse s =
    let s = String.lowercase_ascii s in
    let found =
      List.find_opt
        (fun a -> String.lowercase_ascii a.Driver.name = s)
        Driver.all
    in
    match found with
    | Some a -> Ok a
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown algorithm %S (known: %s)" s
             (String.concat ", "
                (List.map (fun a -> a.Driver.name) Driver.all))))
  in
  let print ppf a = Format.pp_print_string ppf a.Driver.name in
  Arg.conv (parse, print)

(* ------------------------------------------------------------------ *)
(* Diagnostics and inputs                                               *)
(* ------------------------------------------------------------------ *)

(* Every user-facing failure goes through here: a one-line diagnostic on
   stderr (with the input line number whenever one is known) and exit 2,
   never an uncaught exception with a backtrace. *)
let die cmd fmt =
  Fmt.kstr
    (fun msg ->
      Printf.eprintf "psched %s: %s\n" cmd msg;
      exit 2)
    fmt

let load_instance cmd file =
  match Io.load file with
  | inst -> inst
  | exception (Failure m | Sys_error m) -> die cmd "%s" m

let check_applicable cmd (alg : Driver.algorithm) inst =
  if not (alg.applicable inst) then
    die cmd "%s is not applicable to this instance" alg.name

(* Run a stream loop over the input ('-' is stdin).  The reader's
   line-numbered complaints and the loops' own end here as [die]. *)
let with_input cmd input f =
  let ic =
    if input = "-" then stdin
    else
      match open_in input with
      | ic -> ic
      | exception Sys_error m -> die cmd "%s" m
  in
  match f ic with
  | () -> if input <> "-" then close_in ic
  | exception (Failure m | Sys_error m) -> die cmd "%s" m

(* ------------------------------------------------------------------ *)
(* Decision records (shared by `run --decisions-only` and `stream`)     *)
(* ------------------------------------------------------------------ *)

(* One canonical-JSON record per arrival.  The batch `run` fold and the
   line-by-line `stream` front end both emit through [fold_arrive], so
   diffing their outputs (the @stream-smoke alias) certifies that
   streaming an instance reproduces the batch decisions byte for byte. *)
let opt_float = function None -> Json.Null | Some f -> Json.Float f

let decision_record ~seq ~plan_before (d : Online.decision)
    (plan : Schedule.t) =
  let n_slices = List.length plan.slices in
  Json.Obj
    [
      ("seq", Json.Int seq);
      ("job", Json.Int d.job_id);
      ("accepted", Json.Bool d.accepted);
      ("lambda", opt_float d.lambda);
      ("planned_speed", opt_float d.planned_speed);
      ("plan_slices", Json.Int n_slices);
      ("plan_delta", Json.Int (n_slices - plan_before));
      ("rejected", Json.Int (List.length plan.rejected));
    ]

type fold = {
  engine : Online.t;
  records : bool;  (** print a decision record per arrival *)
  mutable seq : int;
  mutable accepted : int;
  mutable plan_before : int;
}

let fold_start ~records engine =
  { engine; records; seq = 0; accepted = 0; plan_before = 0 }

let fold_arrive f j =
  let d = Online.arrive f.engine j in
  if f.records then begin
    let plan = Online.current_plan f.engine in
    print_endline
      (Json.to_string
         (decision_record ~seq:f.seq ~plan_before:f.plan_before d plan));
    f.plan_before <- List.length plan.Schedule.slices
  end;
  f.seq <- f.seq + 1;
  if d.accepted then f.accepted <- f.accepted + 1

let fold_summary f =
  let plan = Online.finalize f.engine in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("summary", Json.Str (Online.name (Online.engine_of f.engine)));
            ("jobs", Json.Int f.seq);
            ("accepted", Json.Int f.accepted);
            ("rejected", Json.Int (f.seq - f.accepted));
            ("plan_slices", Json.Int (List.length plan.slices));
            ( "energy",
              Json.Float
                (Schedule.energy (Online.params_of f.engine).power plan) );
          ]))

(* ------------------------------------------------------------------ *)
(* generate                                                             *)
(* ------------------------------------------------------------------ *)

let generate_cmd =
  let preset =
    let doc = "Workload preset: datacenter, random, or bkp." in
    Arg.(value & opt string "random" & info [ "preset" ] ~doc)
  in
  let alpha =
    Arg.(value & opt float 3.0 & info [ "alpha" ] ~doc:"Energy exponent.")
  in
  let machines =
    Arg.(value & opt int 1 & info [ "m"; "machines" ] ~doc:"Processor count.")
  in
  let n = Arg.(value & opt int 20 & info [ "n" ] ~doc:"Number of jobs.") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"Random seed.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "output" ] ~doc:"Output file (default: stdout).")
  in
  let run preset alpha machines n seed out =
    let power = Power.make alpha in
    let inst =
      match preset with
      | "datacenter" ->
        Speedscale_workload.Generate.datacenter ~power ~machines ~seed ~n
      | "bkp" -> Speedscale_workload.Generate.bkp_lower_bound ~alpha ~n ()
      | "random" ->
        Speedscale_workload.Generate.random ~power ~machines ~seed ~n
          ~arrivals:(Poisson 1.0)
          ~sizes:(Uniform_size (0.3, 2.5))
          ~laxity:(0.4, 2.5)
          ~values:(Uniform_value (0.2, 20.0))
      | other -> die "generate" "unknown preset %S" other
    in
    let text = Io.to_string inst in
    match out with
    | None -> print_string text
    | Some path ->
      Io.save path inst;
      Printf.printf "wrote %d jobs to %s\n" (Instance.n_jobs inst) path
  in
  let info =
    Cmd.info "generate" ~doc:"Generate a workload instance file."
  in
  Cmd.v info Term.(const run $ preset $ alpha $ machines $ n $ seed $ out)

(* ------------------------------------------------------------------ *)
(* run                                                                  *)
(* ------------------------------------------------------------------ *)

let print_report (r : Driver.report) =
  Printf.printf "%-12s energy=%.4f lost=%.4f total=%.4f  (%.1f ms)  %s\n"
    r.algorithm r.cost.energy r.cost.lost_value (Cost.total r.cost)
    (r.elapsed_s *. 1000.0)
    (match r.validation with Ok () -> "valid" | Error e -> "INVALID: " ^ e)

let run_cmd =
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Driver.pd
      & info [ "a"; "algorithm" ] ~doc:"Algorithm to run (default PD).")
  in
  let show_schedule =
    Arg.(value & flag & info [ "show-schedule" ] ~doc:"Print the slices.")
  in
  let trace =
    Arg.(
      value & flag
      & info [ "trace" ]
          ~doc:
            "Replay the resulting schedule through the discrete-event \
             engine and print the event trace.")
  in
  let decisions_only =
    Arg.(
      value & flag
      & info [ "decisions-only" ]
          ~doc:
            "Print one canonical JSON record per arrival (the online \
             decision fold) and nothing else; requires an online \
             algorithm.  Byte-compatible with `psched stream`.")
  in
  let run file algorithm show_schedule trace decisions_only =
    let inst = load_instance "run" file in
    check_applicable "run" algorithm inst;
    if decisions_only then begin
      let e =
        match algorithm.engine with
        | Some e -> e
        | None ->
          die "run"
            "%s is an offline algorithm; only online engines stream \
             (known: %s)"
            algorithm.name
            (String.concat ", " (List.map Online.name Online.all))
      in
      let f =
        fold_start ~records:true
          (Online.start e (Online.params_of_instance inst))
      in
      Array.iter (fold_arrive f) inst.jobs;
      fold_summary f
    end
    else begin
      let r = Driver.evaluate ~clock:Unix.gettimeofday algorithm inst in
      print_report r;
      if show_schedule then
        print_string (Format.asprintf "%a" Schedule.pp r.schedule);
      if trace then begin
        let replay = Speedscale_engine.Executor.replay inst r.schedule in
        List.iter
          (fun e ->
            print_endline
              (Format.asprintf "%a" Speedscale_engine.Executor.pp_event e))
          replay.events;
        Printf.printf "\nenergy %.6f, makespan %.6f, %d events\n"
          replay.total_energy replay.makespan
          (List.length replay.events)
      end
    end
  in
  let info = Cmd.info "run" ~doc:"Run one algorithm on an instance." in
  Cmd.v info
    Term.(
      const run $ instance_arg $ algorithm $ show_schedule $ trace
      $ decisions_only)

(* ------------------------------------------------------------------ *)
(* stream / serve                                                       *)
(* ------------------------------------------------------------------ *)

(* Per-arrival record of the sharded path.  Unlike {!decision_record} it
   carries the shard and skips the plan fields: rebuilding the plan after
   every arrival is what made long streams quadratic, and a service
   cannot afford it. *)
let sharded_record (ev : Service.ev) =
  let d = ev.Service.decision in
  Json.Obj
    [
      ("seq", Json.Int ev.Service.seq);
      ("job", Json.Int d.Online.job_id);
      ("shard", Json.Int ev.Service.shard);
      ("accepted", Json.Bool d.accepted);
      ("lambda", opt_float d.lambda);
      ("planned_speed", opt_float d.planned_speed);
    ]

(* Summaries of the sharded path are derived from final engine states
   (plus the global sequence counter) only — never from the decision
   history — so a run killed and restored from a checkpoint prints the
   very same bytes as one that ran straight through. *)
let sharded_summaries ~engine ~total_seq svc plans =
  let distinct_jobs slices =
    List.sort_uniq Int.compare
      (List.map (fun (s : Schedule.slice) -> s.job) slices)
  in
  let shard_rows =
    Array.to_list
      (Array.mapi
         (fun i (plan : Schedule.t) ->
           let p = (Service.shard_params svc i).Online.power in
           Json.Obj
             [
               ("shard", Json.Int i);
               ("machines", Json.Int plan.machines);
               ("accepted", Json.Int (List.length (distinct_jobs plan.slices)));
               ("rejected", Json.Int (List.length plan.rejected));
               ("plan_slices", Json.Int (List.length plan.slices));
               ("energy", Json.Float (Schedule.energy p plan));
             ])
         plans)
  in
  let sum f = Array.fold_left (fun acc p -> acc + f p) 0 plans in
  let energy =
    Array.to_list plans
    |> List.mapi (fun i p ->
           Schedule.energy (Service.shard_params svc i).Online.power p)
    |> List.fold_left ( +. ) 0.
  in
  let global =
    Json.Obj
      [
        ("summary", Json.Str (Online.name engine ^ "-sharded"));
        ("shards", Json.Int (Array.length plans));
        ("jobs", Json.Int total_seq);
        ( "accepted",
          Json.Int
            (sum (fun (p : Schedule.t) -> List.length (distinct_jobs p.slices)))
        );
        ( "rejected",
          Json.Int (sum (fun (p : Schedule.t) -> List.length p.rejected)) );
        ( "plan_slices",
          Json.Int (sum (fun (p : Schedule.t) -> List.length p.slices)) );
        ("energy", Json.Float energy);
      ]
  in
  shard_rows @ [ global ]

(* The sharded admission loop behind `psched serve`.  It stays apart
   from `stream`'s single-engine fold because the two emit different
   records: [sharded_record] carries the shard and no plan fields,
   [decision_record] the plan fields @stream-smoke pins against `run`.
   [kill_after] is the crash-injection hook the @serve-soak alias uses:
   emit every record with seq < N, flush, exit 0 — no summary — so a
   later --restore run can be byte-diffed against the straight-through
   output. *)
let run_sharded ~engine ~delta ~shards:k ~workers ~snapshot_dir
    ~snapshot_every ~restore ~kill_after ~migrate_every ~summary_only ic =
  if k < 1 then die "serve" "--shards must be >= 1, got %d" k;
  (match workers with
  | Some w when w < 1 -> die "serve" "--workers must be >= 1, got %d" w
  | _ -> ());
  let restored =
    Option.map
      (fun path ->
        let manifest =
          if Sys.file_exists path && Sys.is_directory path then
            Filename.concat path Checkpoint.manifest_name
          else path
        in
        Service.restore ?workers ~manifest ())
      restore
  in
  let emit evs =
    if not summary_only then
      List.iter
        (fun ev -> print_endline (Json.to_string (sharded_record ev)))
        evs
  in
  let start ~line ~power ~machines:m =
    match restored with
    | Some s -> s
    | None -> (
      if m < k then
        Io.fail ~line
          "%d machines cannot be split across %d shards (need machines >= \
           shards)"
          m k;
      (* Split the machine pool across the shards: m/k each, the first
         m mod k shards get one more. *)
      let params i =
        let mi = (m / k) + if i < m mod k then 1 else 0 in
        Online.params ?delta ~power ~machines:mi ()
      in
      match Service.create ?workers ~engine ~params ~shards:k () with
      | s -> s
      | exception Invalid_argument msg -> Io.fail ~line "%s" msg)
  in
  let arrive s ~line (j : Job.t) =
    (* A restored service replays nothing: the checkpoint already holds
       the first [seq] arrivals, so this run just skips them. *)
    if j.id >= Service.seq s then begin
      (match Service.submit s j with
      | evs -> emit evs
      | exception e -> Io.fail ~line "%s" (Printexc.to_string e));
      let seq = Service.seq s in
      (match snapshot_dir with
      | Some dir when snapshot_every > 0 && seq mod snapshot_every = 0 ->
        Service.checkpoint s ~dir
      | _ -> ());
      if migrate_every > 0 && seq mod migrate_every = 0 then begin
        let shard = seq / migrate_every mod Service.shards s in
        let worker = (Service.worker_of s ~shard + 1) mod Service.workers s in
        Service.migrate s ~shard ~worker
      end;
      match kill_after with
      | Some n when seq >= n ->
        emit (Service.drain s);
        Service.shutdown s;
        exit 0
      | _ -> ()
    end
  in
  let s = Io.read_stream ic ~start ~arrive in
  emit (Service.drain s);
  let plans = Service.finalize s in
  List.iter
    (fun row -> print_endline (Json.to_string row))
    (sharded_summaries ~engine:(Service.engine s) ~total_seq:(Service.seq s)
       s plans);
  (match snapshot_dir with
  | Some dir when snapshot_every = 0 -> Service.checkpoint s ~dir
  | _ -> ());
  Service.shutdown s

let engine_conv =
  let parse s =
    match Online.find s with
    | Some e -> Ok e
    | None ->
      Error
        (`Msg
          (Printf.sprintf "unknown online engine %S (known: %s)" s
             (String.concat ", " (List.map Online.name Online.all))))
  in
  let print ppf e = Format.pp_print_string ppf (Online.name e) in
  Arg.conv (parse, print)

let stream_input_arg =
  let doc = "Arrival stream (instance text format); '-' reads stdin." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"STREAM" ~doc)

let stream_engine_arg =
  Arg.(
    value
    & opt engine_conv Online.pd
    & info [ "a"; "algorithm" ] ~doc:"Online engine (default pd).")

let stream_delta_arg =
  Arg.(
    value
    & opt (some float) None
    & info [ "delta" ] ~doc:"PD rejection parameter (default alpha^(1-alpha)).")

let stream_summary_only_arg =
  Arg.(
    value & flag
    & info [ "summary-only" ]
        ~doc:
          "Suppress the per-arrival decision records; emit only the final \
           summary record(s).  For `stream` this also skips the plan \
           rebuild each record requires, making long soak streams linear \
           instead of quadratic in the number of arrivals.")

let stream_cmd =
  let run input engine delta summary_only =
    with_input "stream" input (fun ic ->
        let start ~line ~power ~machines =
          match
            Online.start engine (Online.params ?delta ~power ~machines ())
          with
          | t -> fold_start ~records:(not summary_only) t
          | exception Invalid_argument m -> Io.fail ~line "%s" m
        in
        let arrive f ~line j =
          match fold_arrive f j with
          | () -> ()
          | exception Invalid_argument m -> Io.fail ~line "%s" m
        in
        fold_summary (Io.read_stream ic ~start ~arrive))
  in
  let info =
    Cmd.info "stream"
      ~doc:
        "Feed arrival events line by line through an online engine, \
         emitting one decision record per arrival."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Reads the instance text format as an event stream: header \
             lines fix the model (alpha, machines), then every 'job' line \
             is an arrival handed to the engine immediately.  Output is \
             one canonical JSON record per arrival (accept/reject, \
             multiplier, planned speed, plan delta) plus a final summary \
             record — byte-identical to `psched run --decisions-only` on \
             the same instance, which is the online=batch equivalence the \
             @stream-smoke alias checks.";
          `P
            "Malformed streams (NaN or non-positive workloads, deadline <= \
             release, out-of-order arrivals, missing headers) are rejected \
             with a line-numbered message and exit status 2.  To shard \
             the arrivals across engines, checkpoint or restore, use \
             `psched serve`.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ stream_input_arg $ stream_engine_arg $ stream_delta_arg
      $ stream_summary_only_arg)

let serve_cmd =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"K"
          ~doc:"Engine shards to partition arrivals across (default 4).")
  in
  let workers =
    Arg.(
      value
      & opt (some int) None
      & info [ "workers" ]
          ~doc:"Worker domains (default: one per shard).")
  in
  let snapshot_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "snapshot-dir" ]
          ~doc:
            "Checkpoint directory.  With --snapshot-every N a checkpoint \
             is committed every N arrivals; without it, once after the \
             last arrival.")
  in
  let snapshot_every =
    Arg.(
      value & opt int 0
      & info [ "snapshot-every" ] ~docv:"N"
          ~doc:"Commit a checkpoint to --snapshot-dir every N arrivals.")
  in
  let restore =
    Arg.(
      value
      & opt (some string) None
      & info [ "restore" ] ~docv:"DIR|MANIFEST"
          ~doc:
            "Restore the service from a committed checkpoint (a directory \
             containing a manifest, or the manifest path itself) before \
             reading the stream; arrivals the checkpoint already covers \
             are skipped.  Engine, shard count and per-shard parameters \
             come from the manifest.")
  in
  let kill_after =
    Arg.(
      value
      & opt (some int) None
      & info [ "kill-after" ] ~docv:"N"
          ~doc:
            "Crash injection for failover tests: emit the decision records \
             for the first N arrivals, flush, and exit 0 — no summary.")
  in
  let migrate_every =
    Arg.(
      value & opt int 0
      & info [ "migrate-every" ] ~docv:"N"
          ~doc:
            "Live-migrate one shard to the next worker domain every N \
             arrivals (0: never) by reassigning its ingest queue; the \
             decision stream is unaffected.")
  in
  let run input engine delta summary_only shards workers snapshot_dir
      snapshot_every restore kill_after migrate_every =
    with_input "serve" input
      (run_sharded ~engine ~delta ~shards ~workers ~snapshot_dir
         ~snapshot_every ~restore ~kill_after ~migrate_every ~summary_only)
  in
  let info =
    Cmd.info "serve"
      ~doc:
        "Sharded admission-control service: partition an arrival stream \
         across engine shards on separate domains, with checkpointing, \
         restore and live shard migration."
      ~man:
        [
          `S Manpage.s_description;
          `P
            "Runs the lib/service admission loop over the input stream: \
             each arrival is routed to a shard by a deterministic hash \
             of its id, shards decide independently on their slice of \
             the machine pool, and decisions are merged back into one \
             stream in global arrival order — byte-identical run over \
             run, at any worker count, under migration, and across \
             kill/restore.";
          `P
            "--snapshot-dir plus --snapshot-every N commit a consistent \
             checkpoint (per-shard `online-snapshot v1` files plus a \
             digest-carrying manifest, renamed into place atomically) \
             every N arrivals.  A killed service restarts with --restore \
             and skips the arrivals the checkpoint already covers; the \
             concatenated output equals the straight-through run's, byte \
             for byte, which is exactly what the @serve-soak alias \
             checks.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ stream_input_arg $ stream_engine_arg $ stream_delta_arg
      $ stream_summary_only_arg $ shards $ workers $ snapshot_dir
      $ snapshot_every $ restore $ kill_after $ migrate_every)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run file =
    let inst = load_instance "compare" file in
    Printf.printf "instance: %s\n\n" (Format.asprintf "%a" Instance.pp inst);
    List.iter
      (fun alg ->
        if alg.Driver.applicable inst then
          print_report (Driver.evaluate ~clock:Unix.gettimeofday alg inst))
      Driver.all
  in
  let info =
    Cmd.info "compare" ~doc:"Run every applicable algorithm on an instance."
  in
  Cmd.v info Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ *)
(* engines                                                              *)
(* ------------------------------------------------------------------ *)

let engines_cmd =
  let run () =
    print_endline "online engines (usable with run/stream/serve):";
    List.iter
      (fun e ->
        Printf.printf "  %-12s %-15s %s\n" (Online.name e)
          (Online.family_name (Online.family e))
          (Online.description e))
      Online.all;
    print_endline "";
    print_endline "offline baselines (compare only):";
    List.iter
      (fun (alg : Driver.algorithm) ->
        if alg.engine = None then
          Printf.printf "  %-12s %-15s %s\n" alg.name "offline"
            alg.description)
      Driver.all
  in
  let info =
    Cmd.info "engines"
      ~doc:
        "List every registered engine with its scheduling-model family \
         (preemptive, non-preemptive, migratory) and the offline baselines."
  in
  Cmd.v info Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* certify                                                              *)
(* ------------------------------------------------------------------ *)

let certify_cmd =
  let run file =
    let inst = load_instance "certify" file in
    let r = Speedscale_core.Pd.run inst in
    let cost = Cost.total r.cost in
    Printf.printf "PD cost            : %.6f\n" cost;
    Printf.printf "dual bound g(l)    : %.6f  (proven <= OPT)\n" r.dual_bound;
    Printf.printf "certified ratio    : %.6f\n" (cost /. r.dual_bound);
    Printf.printf "guarantee (a^a)    : %.6f\n" r.guarantee;
    Printf.printf "accepted/rejected  : %d/%d\n"
      (List.length r.accepted) (List.length r.rejected);
    if cost <= (r.guarantee *. r.dual_bound) +. 1e-9 then
      print_endline "Theorem 3 certificate: HOLDS"
    else print_endline "Theorem 3 certificate: VIOLATED (bug!)"
  in
  let info =
    Cmd.info "certify"
      ~doc:"Run PD and print its per-instance optimality certificate."
  in
  Cmd.v info Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ *)
(* analyze                                                              *)
(* ------------------------------------------------------------------ *)

let analyze_cmd =
  let run file =
    let inst = load_instance "analyze" file in
    let r = Speedscale_core.Pd.run inst in
    let a = Speedscale_core.Analysis.analyze inst r in
    Printf.printf "%-5s %-11s %9s %9s %9s %9s %9s\n" "job" "category"
      "lambda" "shat" "xhat" "E_lambda" "E_PD";
    Array.iter
      (fun (ji : Speedscale_core.Analysis.job_info) ->
        Printf.printf "%-5d %-11s %9.4f %9.4f %9.4f %9.4f %9.4f\n" ji.id
          (Speedscale_core.Analysis.category_name ji.category)
          ji.lambda ji.shat ji.xhat ji.e_lambda ji.e_pd)
      a.jobs;
    Printf.printf
      "\ng = %.6f (g1 %.4f + g2 %.4f + g3 %.4f); cost(PD) = %.6f\n" a.g_total
      a.g1 a.g2 a.g3 a.cost_pd;
    Printf.printf
      "checks: traces-disjoint=%b prop7=%b prop8b=%b L9=%b L10=%b L11=%b thm3=%b\n"
      a.traces_disjoint a.prop7_ok a.prop8b_ok a.lemma9_ok a.lemma10_ok
      a.lemma11_ok a.theorem3_ok
  in
  let info =
    Cmd.info "analyze"
      ~doc:"Run PD and print the Section 4 proof anatomy (traces, categories)."
  in
  Cmd.v info Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ *)
(* provision                                                            *)
(* ------------------------------------------------------------------ *)

let provision_cmd =
  let run file =
    let inst = load_instance "provision" file in
    let must = Instance.with_values inst (fun _ -> Float.infinity) in
    Printf.printf "%-4s %14s\n" "m" "min speed cap";
    List.iter
      (fun m ->
        let inst_m =
          Instance.make ~power:must.power ~machines:m
            (Array.to_list must.jobs)
        in
        Printf.printf "%-4d %14.6f\n" m
          (Speedscale_flow.Feasibility.min_speed_cap inst_m))
      [ 1; 2; 4; 8; 16 ]
  in
  let info =
    Cmd.info "provision"
      ~doc:
        "Minimum feasible speed cap (max-flow bisection) across fleet sizes."
  in
  Cmd.v info Term.(const run $ instance_arg)

(* ------------------------------------------------------------------ *)
(* replay                                                               *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let csv =
    Arg.(
      value
      & opt (some string) None
      & info [ "csv" ] ~doc:"Write the event trace to this CSV file.")
  in
  let run file csv =
    let inst = load_instance "replay" file in
    let r = Speedscale_core.Pd.run inst in
    let run = Speedscale_engine.Executor.replay inst r.schedule in
    List.iter
      (fun e ->
        print_endline
          (Format.asprintf "%a" Speedscale_engine.Executor.pp_event e))
      run.events;
    Printf.printf "\nenergy %.6f, makespan %.6f, %d events\n" run.total_energy
      run.makespan (List.length run.events);
    match csv with
    | None -> ()
    | Some path ->
      let oc = open_out path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc (Speedscale_engine.Executor.to_csv run));
      Printf.printf "trace written to %s\n" path
  in
  let info =
    Cmd.info "replay"
      ~doc:"Run PD and replay the schedule through the event engine."
  in
  Cmd.v info Term.(const run $ instance_arg $ csv)

(* ------------------------------------------------------------------ *)
(* gantt                                                                *)
(* ------------------------------------------------------------------ *)

let gantt_cmd =
  let algorithm =
    Arg.(
      value
      & opt algorithm_conv Driver.pd
      & info [ "a"; "algorithm" ] ~doc:"Algorithm to chart (default PD).")
  in
  let width =
    Arg.(value & opt int 72 & info [ "width" ] ~doc:"Chart width in columns.")
  in
  let run file algorithm width =
    let inst = load_instance "gantt" file in
    check_applicable "gantt" algorithm inst;
    let r = Driver.evaluate ~clock:Unix.gettimeofday algorithm inst in
    Printf.printf "%s on %s\n\n" r.algorithm
      (Format.asprintf "%a" Instance.pp inst);
    print_string (Speedscale_metrics.Gantt.render ~width r.schedule);
    print_report r
  in
  let info =
    Cmd.info "gantt" ~doc:"Render an algorithm's schedule as an ASCII chart."
  in
  Cmd.v info Term.(const run $ instance_arg $ algorithm $ width)

let () =
  let info =
    Cmd.info "psched" ~version:"1.0.0"
      ~doc:"Profitable scheduling on multiple speed-scalable processors."
  in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            generate_cmd; run_cmd; stream_cmd; serve_cmd; compare_cmd;
            engines_cmd; certify_cmd; analyze_cmd; provision_cmd; replay_cmd;
            gantt_cmd;
          ]))
