(* slint: the speedscale static-analysis driver.  See doc/LINTING.md. *)

let usage =
  "slint [--root DIR] [--json] [--sarif PATH] [--rules r1,r2] [--list-rules] \
   [--explain RULE] [--bench-out PATH]\n\n\
   Exit codes:\n\
  \  0  no error-severity findings\n\
  \  1  an error-severity finding (an unused or malformed suppression \
   directive is one)\n\
  \  2  usage or configuration error (unknown rule, bad root)\n"

open Speedscale_lint

let explain name =
  match Rule.find ~name Registry.all with
  | None ->
    Fmt.epr "slint: unknown rule %s (known: %s)@." name
      (String.concat ", " Registry.names);
    exit 2
  | Some r ->
    Fmt.pr "%s  (%s%s)@.@.%s@." r.name
      (match r.severity with Finding.Error -> "error" | _ -> "warning")
      (if r.check_project <> None then ", whole-program" else "")
      r.doc;
    if not (String.equal r.example "") then Fmt.pr "@.Example:@.%s@." r.example;
    (* the marker is concatenated so the lint scanner does not read this
       source line as a (malformed) suppression directive *)
    Fmt.pr
      "@.Suppress a single line with a comment on it or just above:@.\
      \  (* %s %s -- reason *)@.\
       Unused or malformed directives are themselves findings.@."
      ("slint:" ^ " allow") r.name;
    exit 0

let () =
  let root = ref "." in
  let json = ref false in
  let sarif_path = ref None in
  let bench_out = ref None in
  let rule_names = ref [] in
  let list_rules = ref false in
  let spec =
    [
      ("--root", Arg.Set_string root, "DIR  directory to scan (default .)");
      ("--json", Arg.Set json, "  emit findings as a JSON array");
      ( "--sarif",
        Arg.String (fun s -> sarif_path := Some s),
        "PATH  additionally write a SARIF 2.1.0 report to PATH" );
      ( "--rules",
        Arg.String
          (fun s ->
            rule_names :=
              !rule_names @ List.map String.trim (String.split_on_char ',' s)),
        "NAMES  comma-separated subset of rules to run" );
      ("--list-rules", Arg.Set list_rules, "  print rule names and exit");
      ( "--explain",
        Arg.String explain,
        "RULE  print the rule's doc, an example finding and the \
         suppression syntax" );
      ( "--bench-out",
        Arg.String (fun s -> bench_out := Some s),
        "PATH  write an E25/lint-wall benchmark record (scan wall-clock) \
         to PATH" );
    ]
  in
  Arg.parse spec
    (fun anon -> raise (Arg.Bad (Fmt.str "unexpected argument %S" anon)))
    usage;
  if !list_rules then begin
    List.iter
      (fun (r : Rule.t) -> Fmt.pr "%-16s %s@." r.name r.doc)
      Registry.all;
    exit 0
  end;
  let rules =
    match !rule_names with
    | [] -> Registry.all
    | names -> (
      match Registry.select names with
      | rules -> rules
      | exception Invalid_argument msg ->
        Fmt.epr "slint: %s@." msg;
        exit 2)
  in
  if not (Sys.file_exists !root && Sys.is_directory !root) then begin
    Fmt.epr "slint: root %s is not a directory@." !root;
    exit 2
  end;
  let t0 = Unix.gettimeofday () in
  let findings = Engine.scan ~rules ~root:!root () in
  let scan_wall = Unix.gettimeofday () -. t0 in
  (match !sarif_path with
  | None -> ()
  | Some path ->
    let oc = open_out path in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () ->
        let ppf = Format.formatter_of_out_channel oc in
        Report.pp_sarif ~rules ppf findings;
        Format.pp_print_flush ppf ()));
  if !json then Fmt.pr "%a" Report.pp_json findings
  else if findings <> [] then Fmt.pr "%a" Report.pp_human findings;
  let failing =
    List.exists (fun (f : Finding.t) -> f.severity = Finding.Error) findings
  in
  (match !bench_out with
  | None -> ()
  | Some path ->
    let open Speedscale_obs in
    let record =
      (* slint: allow taint-nondet -- wall-clock lands in the sanctioned timing field *)
      Record.make ~id:"E25/lint-wall"
        ~params:[ ("rules", Record.P_int (List.length rules)) ]
        ~counters:
          [
            ("sources", List.length (Engine.list_sources ~root:!root));
            ("findings", List.length findings);
          ]
        ~verdict:(not failing)
        ~timing:{ Record.wall_s = scan_wall }
        Record.Experiment
    in
    Record.write_file ~path
      {
        Record.version = Record.schema_version;
        env = Record.current_env ~jobs:1;
        records = [ record ];
      });
  exit (if failing then 1 else 0)
