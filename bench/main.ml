(* Benchmark harness entry point.

     dune exec bench/main.exe                      # every experiment
     dune exec bench/main.exe -- E2 E5             # run selected experiments
     dune exec bench/main.exe -- quick             # skip the slow sweeps
     dune exec bench/main.exe -- quick --jobs 2 --json bench-quick.json

   Each experiment regenerates one table or figure of EXPERIMENTS.md and
   prints a CONFIRMED / NOT CONFIRMED verdict for the expected shape; the
   exit code is 1 when any verdict is NOT CONFIRMED, so `quick` (the
   @bench-quick alias in @runtest) gates the reproduction on every test
   run.  Experiments fan out across OCaml 5 domains (their seeds are fixed
   per experiment, and output/records merge in experiment order, so any
   --jobs value prints identical bytes).  --json additionally writes every
   structured record (schema: doc/BENCHMARKING.md). *)

(* Left out of `quick` to keep the @bench-quick gate near 6 s: each took
   2-5 s single-threaded on a 2-vCPU host, E26 about 90 s.  E24 (about
   4 s) stays in because its verdict gates residency. *)
let slow = [ "E8"; "E18"; "E19"; "E21"; "E22"; "E26" ]

let usage code =
  let ch = if code = 0 then stdout else stderr in
  Printf.fprintf ch
    "usage: main.exe [list | quick | all | IDS...] [--json PATH] [--jobs N]\n\
    \  list         print the experiment index and exit\n\
    \  quick        skip the slow sweeps (%s)\n\
    \  IDS          run selected experiments\n\
    \  --json PATH  write structured benchmark records (schema: \
     doc/BENCHMARKING.md)\n\
    \  --jobs N     worker domains for the experiment fan-out (default: \
     cores, max 8)\n\
     exit status: 0 when every verdict is CONFIRMED, 1 otherwise, 2 on \
     usage errors\n"
    (String.concat ", " slow);
  exit code

type cli = {
  mutable ids : string list;  (* reversed *)
  mutable json : string option;
  mutable jobs : int option;
  mutable quick : bool;
  mutable list : bool;
}

let parse_args args =
  let cli =
    { ids = []; json = None; jobs = None; quick = false; list = false }
  in
  let rec go = function
    | [] -> ()
    | "--help" :: _ | "-h" :: _ -> usage 0
    | "--json" :: path :: rest ->
      cli.json <- Some path;
      go rest
    | [ "--json" ] ->
      prerr_endline "main.exe: --json needs a path argument";
      exit 2
    | "--jobs" :: n :: rest -> (
      match int_of_string_opt n with
      | Some k when k >= 1 ->
        cli.jobs <- Some k;
        go rest
      | _ ->
        Printf.eprintf "main.exe: --jobs needs a positive integer, got %S\n" n;
        exit 2)
    | [ "--jobs" ] ->
      prerr_endline "main.exe: --jobs needs a count argument";
      exit 2
    | "list" :: rest ->
      cli.list <- true;
      go rest
    | "quick" :: rest ->
      cli.quick <- true;
      go rest
    | "all" :: rest -> go rest
    | arg :: rest ->
      if String.length arg > 0 && Char.equal arg.[0] '-' then begin
        Printf.eprintf "main.exe: unknown option %s\n" arg;
        usage 2
      end;
      cli.ids <- arg :: cli.ids;
      go rest
  in
  go args;
  cli.ids <- List.rev cli.ids;
  cli

let () =
  let cli = parse_args (List.tl (Array.to_list Sys.argv)) in
  let known = List.map fst Experiments.all in
  if cli.list then begin
    Printf.printf "available experiments:\n";
    List.iter (fun id -> Printf.printf "  %s\n" id) known;
    Printf.printf "modes: quick (skips the slow sweeps: %s)\n"
      (String.concat ", " slow);
    exit 0
  end;
  (* Reject unknown experiment ids loudly: a typo like E99 must not pass
     for a successful (empty) run. *)
  List.iter
    (fun id ->
      if not (List.mem id known) then begin
        Printf.eprintf
          "main.exe: unknown experiment id %S (run 'main.exe list' for the \
           index)\n"
          id;
        exit 2
      end)
    cli.ids;
  let wanted =
    if cli.ids <> [] then List.filter (fun id -> List.mem id cli.ids) known
    else if cli.quick then List.filter (fun id -> not (List.mem id slow)) known
    else known
  in
  let jobs =
    match cli.jobs with
    | Some k -> k
    | None -> Speedscale_obs.Runner.default_jobs ()
  in
  Printf.printf
    "Profitable Scheduling on Multiple Speed-Scalable Processors —\n\
     experiment harness (see DESIGN.md / EXPERIMENTS.md for the index)\n";
  let tasks = List.filter (fun (id, _) -> List.mem id wanted) Experiments.all in
  let results =
    Speedscale_obs.Runner.map ~jobs
      (fun (id, f) -> Harness.with_task id f)
      tasks
  in
  List.iter (fun (r : Harness.task_result) -> print_string r.output) results;
  Printf.printf "\nAll requested experiments completed.\n";
  let records =
    List.concat_map (fun (r : Harness.task_result) -> r.records) results
  in
  Option.iter
    (fun path ->
      Speedscale_obs.Record.write_file ~path
        {
          Speedscale_obs.Record.version = Speedscale_obs.Record.schema_version;
          env = Speedscale_obs.Record.current_env ~jobs;
          records;
        })
    cli.json;
  (* The gate: any NOT CONFIRMED verdict fails the run. *)
  match
    List.filter_map
      (fun (r : Speedscale_obs.Record.t) ->
        match r.verdict with Some false -> Some r.id | _ -> None)
      records
  with
  | [] -> ()
  | failed ->
    Printf.eprintf "main.exe: NOT CONFIRMED: %s\n" (String.concat ", " failed);
    exit 1
