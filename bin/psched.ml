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
(* Decision records (shared by `run --decisions-only` and `stream`)     *)
(* ------------------------------------------------------------------ *)

(* One canonical-JSON record per arrival.  The batch `run` fold and the
   line-by-line `stream` front end both emit through here, so diffing
   their outputs (the @stream-smoke alias) certifies that streaming an
   instance reproduces the batch decisions byte for byte. *)
let decision_record ~seq ~plan_before (d : Online.decision)
    (plan : Schedule.t) =
  let opt_float = function None -> Json.Null | Some f -> Json.Float f in
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

let summary_record ~algorithm ~power (decisions : Online.decision list)
    (plan : Schedule.t) =
  let accepted, rejected =
    List.partition (fun (d : Online.decision) -> d.accepted) decisions
  in
  Json.Obj
    [
      ("summary", Json.Str algorithm);
      ("jobs", Json.Int (List.length decisions));
      ("accepted", Json.Int (List.length accepted));
      ("rejected", Json.Int (List.length rejected));
      ("plan_slices", Json.Int (List.length plan.slices));
      ("energy", Json.Float (Schedule.energy power plan));
    ]

(* Fold an online engine over arrivals, printing one record per arrival. *)
let print_decision_fold t ~emit jobs =
  let seq = ref 0 and plan_before = ref 0 in
  let decisions_rev = ref [] in
  List.iter
    (fun j ->
      let d = Online.arrive t j in
      let plan = Online.current_plan t in
      emit (decision_record ~seq:!seq ~plan_before:!plan_before d plan);
      plan_before := List.length plan.Schedule.slices;
      incr seq;
      decisions_rev := d :: !decisions_rev)
    jobs;
  List.rev !decisions_rev

let online_engine_of (alg : Driver.algorithm) =
  match alg.engine with
  | Some e -> e
  | None ->
    failwith
      (Printf.sprintf
         "%s is an offline algorithm; only online engines can stream \
          (known: %s)"
         alg.Driver.name
         (String.concat ", " (List.map Online.name Online.all)))

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
      | other -> failwith (Printf.sprintf "unknown preset %S" other)
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
    let inst = Io.load file in
    if not (algorithm.Driver.applicable inst) then
      failwith
        (Printf.sprintf "%s is not applicable to this instance"
           algorithm.Driver.name);
    if decisions_only then begin
      let e = online_engine_of algorithm in
      let t = Online.start e (Online.params_of_instance inst) in
      let decisions =
        print_decision_fold t
          ~emit:(fun r -> print_endline (Json.to_string r))
          (Array.to_list inst.jobs)
      in
      print_endline
        (Json.to_string
           (summary_record ~algorithm:(Online.name e) ~power:inst.power
              decisions (Online.finalize t)))
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

(* Every user-facing failure of the streaming front ends goes through
   here: a one-line diagnostic on stderr (with the input line number
   whenever one is known) and exit 2 — the same discipline as
   bench-diff, never an uncaught exception with a backtrace. *)
let stream_die cmd fmt =
  Fmt.kstr
    (fun msg ->
      Printf.eprintf "psched %s: %s\n" cmd msg;
      exit 2)
    fmt

(* Parse the instance text format as an event stream, validating every
   line as it is read.  Rejects — with line-numbered exit-2 errors —
   anything [Job.make] would throw on later (NaN or negative workloads,
   deadline <= release, ...), plus out-of-order arrivals and headers
   after the first job, so the engines downstream only ever see
   well-formed, release-ordered arrivals. *)
let parse_stream ~cmd ic ~on_alpha ~on_machines ~on_job =
  let fail lineno fmt = stream_die cmd ("line %d: " ^^ fmt) lineno in
  let lineno = ref 0 in
  let last_release = ref Float.neg_infinity in
  let saw_job = ref false in
  let parse_float what v =
    match float_of_string_opt v with
    | Some f -> f
    | None -> fail !lineno "bad %s %S" what v
  in
  (try
     while true do
       let line = input_line ic in
       incr lineno;
       let line = String.trim line in
       if line = "" || line.[0] = '#' then ()
       else
         match String.split_on_char ' ' line |> List.filter (( <> ) "") with
         | [ "alpha"; v ] ->
           if !saw_job then fail !lineno "'alpha' header after the first job";
           let a = parse_float "alpha" v in
           if not (Float.is_finite a) then fail !lineno "bad alpha %S" v;
           (match Power.make a with
           | p -> on_alpha !lineno p
           | exception Invalid_argument m -> fail !lineno "%s" m)
         | [ "machines"; v ] -> (
           if !saw_job then
             fail !lineno "'machines' header after the first job";
           match int_of_string_opt v with
           | Some m when m >= 1 -> on_machines !lineno m
           | Some m -> fail !lineno "machines must be >= 1, got %d" m
           | None -> fail !lineno "bad machines %S" v)
         | [ "job"; r; d; w; v ] ->
           let release = parse_float "release" r in
           let deadline = parse_float "deadline" d in
           let workload = parse_float "workload" w in
           let value =
             if v = "inf" then Float.infinity else parse_float "value" v
           in
           if not (Float.is_finite release && release >= 0.) then
             fail !lineno "release must be finite and >= 0, got %s" r;
           if not (Float.is_finite deadline && deadline > release) then
             fail !lineno
               "deadline must be finite and exceed the release (deadline \
                %s, release %s)"
               d r;
           if not (Float.is_finite workload && workload > 0.) then
             fail !lineno "workload must be positive and finite, got %s" w;
           if Float.is_nan value || value < 0. then
             fail !lineno "value must be >= 0, got %s" v;
           if release < !last_release then
             fail !lineno
               "release %s is before the previous arrival (%g); streams \
                must be release-ordered"
               r !last_release;
           last_release := release;
           saw_job := true;
           on_job !lineno ~release ~deadline ~workload ~value
         | _ -> fail !lineno "unrecognized %S" line
     done
   with End_of_file -> ())

let opt_float = function None -> Json.Null | Some f -> Json.Float f

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

(* The sharded admission loop shared by `psched serve` and
   `psched stream --shards`.  [kill_after] is the crash-injection hook
   the @serve-soak alias uses: emit every record with seq < N, flush,
   exit 0 — no summary, no drain-to-EOF — so a later --restore run can
   be byte-diffed against the straight-through output. *)
let run_sharded ~cmd ~engine ~delta ~shards:k ~workers ~snapshot_dir
    ~snapshot_every ~restore ~kill_after ~migrate_every ~summary_only ic =
  let fail fmt = stream_die cmd fmt in
  if k < 1 then fail "--shards must be >= 1, got %d" k;
  (match workers with
  | Some w when w < 1 -> fail "--workers must be >= 1, got %d" w
  | _ -> ());
  let svc =
    match restore with
    | None -> ref None
    | Some path ->
      let manifest =
        if Sys.file_exists path && Sys.is_directory path then
          Filename.concat path Checkpoint.manifest_name
        else path
      in
      let s =
        match Service.restore ?workers ~manifest () with
        | s -> s
        | exception Failure m -> fail "%s" m
      in
      ref (Some s)
  in
  let alpha = ref None and machines = ref None in
  let emit evs =
    if not summary_only then
      List.iter
        (fun ev -> print_endline (Json.to_string (sharded_record ev)))
        evs
  in
  let killed = ref false in
  let arrivals = ref 0 in
  let get_svc lineno =
    match !svc with
    | Some s -> s
    | None ->
      let power =
        match !alpha with
        | Some p -> p
        | None -> fail "line %d: job before the 'alpha' header line" lineno
      in
      let m =
        match !machines with
        | Some m -> m
        | None ->
          fail "line %d: job before the 'machines' header line" lineno
      in
      if m < k then
        fail
          "line %d: %d machines cannot be split across %d shards (need \
           machines >= shards)"
          lineno m k;
      (* Split the machine pool across the shards: m/k each, the first
         m mod k shards get one more. *)
      let params i =
        let mi = (m / k) + if i < m mod k then 1 else 0 in
        Online.params ?delta ~power ~machines:mi ()
      in
      let s =
        match Service.create ?workers ~engine ~params ~shards:k () with
        | s -> s
        | exception Invalid_argument m -> fail "line %d: %s" lineno m
      in
      svc := Some s;
      s
  in
  let on_job lineno ~release ~deadline ~workload ~value =
    if not !killed then begin
      let s = get_svc lineno in
      let idx = !arrivals in
      incr arrivals;
      (* A restored service replays nothing: the checkpoint already holds
         the first [seq] arrivals, so this run just skips them. *)
      if idx >= Service.seq s then begin
        let j =
          Job.make ~id:idx ~release ~deadline ~workload ~value
        in
        (match Service.submit s j with
        | evs -> emit evs
        | exception e -> fail "line %d: %s" lineno (Printexc.to_string e));
        let seq = Service.seq s in
        (match snapshot_dir with
        | Some dir when snapshot_every > 0 && seq mod snapshot_every = 0 ->
          Service.checkpoint s ~dir
        | _ -> ());
        if migrate_every > 0 && seq mod migrate_every = 0 then begin
          let shard = seq / migrate_every mod Service.shards s in
          let worker =
            (Service.worker_of s ~shard + 1) mod Service.workers s
          in
          Service.migrate s ~shard ~worker
        end;
        match kill_after with
        | Some n when seq >= n ->
          emit (Service.drain s);
          Service.shutdown s;
          flush stdout;
          killed := true
        | _ -> ()
      end
    end
  in
  parse_stream ~cmd ic
    ~on_alpha:(fun _ p -> alpha := Some p)
    ~on_machines:(fun _ m -> machines := Some m)
    ~on_job;
  if not !killed then begin
    match !svc with
    | None -> fail "no jobs in the stream"
    | Some s ->
      emit (Service.drain s);
      let plans = Service.finalize s in
      List.iter
        (fun row -> print_endline (Json.to_string row))
        (sharded_summaries ~engine:(Service.engine s)
           ~total_seq:(Service.seq s) s plans);
      (match snapshot_dir with
      | Some dir when snapshot_every = 0 -> Service.checkpoint s ~dir
      | _ -> ());
      Service.shutdown s
  end;
  if !killed then exit 0

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
           summary record(s).  On the single-engine path this also skips \
           the plan rebuild each record requires, making long soak \
           streams linear instead of quadratic in the number of arrivals.")

let stream_workers_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "workers" ]
        ~doc:"Worker domains for the sharded path (default: one per shard).")

let stream_snapshot_dir_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "snapshot-dir" ]
        ~doc:
          "Checkpoint directory for the sharded path.  With \
           --snapshot-every N a checkpoint is committed every N \
           arrivals; without it, once after the last arrival.")

let stream_snapshot_every_arg =
  Arg.(
    value & opt int 0
    & info [ "snapshot-every" ] ~docv:"N"
        ~doc:"Commit a checkpoint to --snapshot-dir every N arrivals.")

let stream_restore_arg =
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

let stream_kill_after_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "kill-after" ] ~docv:"N"
        ~doc:
          "Crash injection for failover tests: emit the decision records \
           for the first N arrivals, flush, and exit 0 — no summary.")

let stream_cmd =
  let shards =
    Arg.(
      value & opt int 1
      & info [ "shards" ] ~docv:"K"
          ~doc:
            "Partition arrivals across K engine shards running on \
             separate domains (default 1: the single-engine path, whose \
             output is byte-identical to `psched run --decisions-only`, \
             unless a sharded-only flag is given).")
  in
  let run input engine delta summary_only shards workers snapshot_dir
      snapshot_every restore kill_after =
    let cmd = "stream" in
    let ic =
      if input = "-" then stdin
      else
        match open_in input with
        | ic -> ic
        | exception Sys_error m -> stream_die cmd "%s" m
    in
    Fun.protect
      ~finally:(fun () -> if input <> "-" then close_in ic)
      (fun () ->
        (* Any sharded-only flag selects the sharded loop, even at
           K = 1, rather than being silently ignored. *)
        if
          shards > 1 || restore <> None || snapshot_dir <> None
          || kill_after <> None || workers <> None
        then
          run_sharded ~cmd ~engine ~delta ~shards ~workers ~snapshot_dir
            ~snapshot_every ~restore ~kill_after ~migrate_every:0
            ~summary_only ic
        else begin
          (* Single-engine path: arrivals are consumed line by line, so
             the engine demonstrably never sees a job before its line is
             read.  Header lines (alpha, machines) must precede the
             first job line. *)
          let alpha = ref None and machines = ref None in
          let state = ref None in
          let seq = ref 0 and plan_before = ref 0 in
          let decisions_rev = ref [] in
          let on_job lineno ~release ~deadline ~workload ~value =
            let t =
              match !state with
              | Some t -> t
              | None ->
                let power =
                  match !alpha with
                  | Some p -> p
                  | None ->
                    stream_die cmd
                      "line %d: job before the 'alpha' header line" lineno
                in
                let m =
                  match !machines with
                  | Some m -> m
                  | None ->
                    stream_die cmd
                      "line %d: job before the 'machines' header line"
                      lineno
                in
                let t =
                  Online.start engine
                    (Online.params ?delta ~power ~machines:m ())
                in
                state := Some t;
                t
            in
            let j =
              Job.make ~id:!seq ~release ~deadline ~workload ~value
            in
            let dec =
              match Online.arrive t j with
              | d -> d
              | exception e ->
                stream_die cmd "line %d: %s" lineno (Printexc.to_string e)
            in
            if not summary_only then begin
              let plan = Online.current_plan t in
              print_endline
                (Json.to_string
                   (decision_record ~seq:!seq ~plan_before:!plan_before dec
                      plan));
              plan_before := List.length plan.Schedule.slices
            end;
            incr seq;
            decisions_rev := dec :: !decisions_rev
          in
          parse_stream ~cmd ic
            ~on_alpha:(fun _ p -> alpha := Some p)
            ~on_machines:(fun _ m -> machines := Some m)
            ~on_job;
          match !state with
          | None -> stream_die cmd "no jobs in the stream"
          | Some t ->
            let power = (Online.params_of t).Online.power in
            print_endline
              (Json.to_string
                 (summary_record ~algorithm:(Online.name engine) ~power
                    (List.rev !decisions_rev)
                    (Online.finalize t)))
        end)
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
            "With --shards K > 1, or with any of --restore, \
             --snapshot-dir, --kill-after or --workers (even at K = 1), \
             the arrivals are hash-partitioned across K engine instances \
             running on separate domains and the output is the sharded \
             record stream — see `psched serve` for the long-running \
             front end with checkpointing and live migration.  Malformed \
             streams (NaN or non-positive workloads, deadline <= \
             release, out-of-order arrivals, missing headers) are \
             rejected with a line-numbered message and exit status 2.";
        ]
  in
  Cmd.v info
    Term.(
      const run $ stream_input_arg $ stream_engine_arg $ stream_delta_arg
      $ stream_summary_only_arg $ shards $ stream_workers_arg
      $ stream_snapshot_dir_arg $ stream_snapshot_every_arg
      $ stream_restore_arg $ stream_kill_after_arg)

let serve_cmd =
  let shards =
    Arg.(
      value & opt int 4
      & info [ "shards" ] ~docv:"K"
          ~doc:"Engine shards to partition arrivals across (default 4).")
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
    let cmd = "serve" in
    let ic =
      if input = "-" then stdin
      else
        match open_in input with
        | ic -> ic
        | exception Sys_error m -> stream_die cmd "%s" m
    in
    Fun.protect
      ~finally:(fun () -> if input <> "-" then close_in ic)
      (fun () ->
        run_sharded ~cmd ~engine ~delta ~shards ~workers ~snapshot_dir
          ~snapshot_every ~restore ~kill_after ~migrate_every ~summary_only
          ic)
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
      $ stream_summary_only_arg $ shards $ stream_workers_arg
      $ stream_snapshot_dir_arg $ stream_snapshot_every_arg
      $ stream_restore_arg $ stream_kill_after_arg $ migrate_every)

(* ------------------------------------------------------------------ *)
(* compare                                                              *)
(* ------------------------------------------------------------------ *)

let compare_cmd =
  let run file =
    let inst = Io.load file in
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
    let inst = Io.load file in
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
    let inst = Io.load file in
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
    let inst = Io.load file in
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
    let inst = Io.load file in
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
(* bench-diff                                                           *)
(* ------------------------------------------------------------------ *)

let bench_diff_cmd =
  let old_arg =
    let doc = "Baseline BENCH_*.json (produced by `bench/main.exe --json`)." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"OLD" ~doc)
  in
  let new_arg =
    let doc = "Candidate BENCH_*.json to gate against the baseline." in
    Arg.(required & pos 1 (some file) None & info [] ~docv:"NEW" ~doc)
  in
  let threshold =
    let doc =
      "Relative slowdown that counts as a regression (0.1 = fail when a \
       kernel is more than 10% slower)."
    in
    Arg.(
      value
      & opt float Speedscale_obs.Diff.default_threshold
      & info [ "threshold" ] ~docv:"FRACTION" ~doc)
  in
  let run old_path new_path threshold =
    let load path =
      match Speedscale_obs.Record.read_file ~path with
      | Ok f -> f
      | Error e ->
        Printf.eprintf "psched bench-diff: %s: %s\n" path e;
        exit 2
    in
    let old_file = load old_path and new_file = load new_path in
    let report =
      Speedscale_obs.Diff.compare_files ~threshold old_file new_file
    in
    print_string (Speedscale_obs.Diff.to_string report);
    if not (Speedscale_obs.Diff.ok report) then exit 1
  in
  let info =
    Cmd.info "bench-diff"
      ~doc:
        "Compare two structured benchmark files; exit non-zero on a perf or \
         verdict regression."
  in
  Cmd.v info Term.(const run $ old_arg $ new_arg $ threshold)

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
    let inst = Io.load file in
    if not (algorithm.Driver.applicable inst) then
      failwith
        (Printf.sprintf "%s is not applicable to this instance"
           algorithm.Driver.name);
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
            gantt_cmd; bench_diff_cmd;
          ]))
