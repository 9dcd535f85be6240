(* End-to-end smoke tests of the psched command-line tool: generate an
   instance, then exercise every subcommand against the real binary and
   check exit codes and key output markers. *)

(* Locate the binary whether we run under `dune runtest` (cwd =
   _build/default/test) or `dune exec` from the project root. *)
let psched =
  let candidates =
    [
      "../bin/psched.exe";
      "_build/default/bin/psched.exe";
      "bin/psched.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/psched.exe"

(* Shell prefix pinning a command to the first CPU this process may use
   (taskset, from util-linux): the child then sees one CPU, which is
   what makes `serve --workers 1` run its shards inline. *)
let pin_one_cpu =
  "taskset -c \"$(taskset -pc $$ | sed 's/.*: *//; s/[-,].*//')\""

(* Run psched with [args]; returns the exit code and what it wrote to
   stdout and stderr, or to stderr alone with [~stderr_only:true]. *)
let run_capture ?(pinned = false) ?(stderr_only = false) args =
  let out = Filename.temp_file "psched" ".out" in
  let sink = Filename.quote out in
  let cmd =
    String.concat " "
      ((if pinned then [ pin_one_cpu ] else [])
      @ List.map Filename.quote (psched :: args)
      @
      if stderr_only then [ "2>" ^ sink; ">/dev/null" ]
      else [ ">" ^ sink; "2>&1" ])
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

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* A fresh empty directory, removed with its contents afterwards. *)
let with_tmp_dir f =
  let dir = Filename.temp_file "psched" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> rm_rf dir) (fun () -> f dir)

let check_ok name (code, text) markers =
  Alcotest.(check int) (name ^ ": exit code") 0 code;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: output mentions %S" name m)
        true (contains text m))
    markers

let with_instance f =
  let path = Filename.temp_file "psched" ".inst" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let code, _ =
        run_capture
          [ "generate"; "--preset"; "random"; "-n"; "6"; "-m"; "2"; "--seed";
            "3"; "-o"; path ]
      in
      Alcotest.(check int) "generate exit code" 0 code;
      f path)

let test_generate_stdout () =
  let code, text = run_capture [ "generate"; "-n"; "3"; "--alpha"; "2.5" ] in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "has header" true (contains text "alpha 2.5");
  Alcotest.(check bool) "has jobs" true (contains text "job ")

let test_run_pd () =
  with_instance (fun path ->
      check_ok "run" (run_capture [ "run"; path ]) [ "PD"; "valid" ])

let test_run_with_schedule () =
  with_instance (fun path ->
      check_ok "run --show-schedule"
        (run_capture [ "run"; path; "--show-schedule" ])
        [ "PD"; "proc 0" ])

let test_compare () =
  with_instance (fun path ->
      check_ok "compare"
        (run_capture [ "compare"; path ])
        [ "PD"; "mOA"; "OPT-energy" ])

let test_engines () =
  let code, text = run_capture [ "engines" ] in
  Alcotest.(check int) "engines exit code" 0 code;
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "engines output mentions %S" m)
        true (contains text m))
    [
      "online engines";
      "offline baselines";
      "npd";
      "non-preemptive";
      "migratory";
      "preemptive";
      "OPT-migratory";
    ];
  (* every registry engine must appear *)
  List.iter
    (fun name ->
      Alcotest.(check bool)
        (Printf.sprintf "engines lists %S" name)
        true
        (contains text name))
    [ "pd"; "oa"; "avr"; "bkp"; "cll"; "moa"; "mavr"; "mcll"; "partitioned" ]

let test_certify () =
  with_instance (fun path ->
      check_ok "certify"
        (run_capture [ "certify"; path ])
        [ "dual bound"; "Theorem 3 certificate: HOLDS" ])

let test_analyze () =
  with_instance (fun path ->
      check_ok "analyze"
        (run_capture [ "analyze"; path ])
        [ "category"; "thm3=true" ])

let test_provision () =
  with_instance (fun path ->
      check_ok "provision"
        (run_capture [ "provision"; path ])
        [ "min speed cap" ])

let test_replay () =
  with_instance (fun path ->
      let csv = Filename.temp_file "psched" ".csv" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists csv then Sys.remove csv)
        (fun () ->
          check_ok "replay"
            (run_capture [ "replay"; path; "--csv"; csv ])
            [ "arrival"; "complete"; "energy" ];
          Alcotest.(check bool) "csv written" true (Sys.file_exists csv)))

let test_gantt () =
  with_instance (fun path ->
      check_ok "gantt"
        (run_capture [ "gantt"; path; "--width"; "40" ])
        [ "p0 "; "speed" ])

let test_unknown_algorithm_fails () =
  with_instance (fun path ->
      let code, _ = run_capture [ "run"; path; "-a"; "nonsense" ] in
      Alcotest.(check bool) "non-zero exit" true (code <> 0))

(* Every subcommand that loads an instance file ends malformed input in
   a one-line `psched <cmd>: ...` diagnostic with exit 2, like the
   stream loops. *)
let check_one_line_exit_2 name args markers =
  let code, out = run_capture args in
  Alcotest.(check int) (name ^ ": exit 2") 2 code;
  Alcotest.(check int)
    (name ^ ": one line: " ^ out)
    1
    (List.length (List.filter (( <> ) "") (String.split_on_char '\n' out)));
  List.iter
    (fun m ->
      Alcotest.(check bool)
        (Printf.sprintf "%s: mentions %S" name m)
        true (contains out m))
    markers

let test_batch_rejects_malformed () =
  let file = Filename.temp_file "psched" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove file)
    (fun () ->
      List.iter
        (fun (name, text, markers) ->
          write_file file text;
          check_one_line_exit_2 ("run " ^ name) [ "run"; file ]
            ("psched run:" :: markers))
        [
          ("nan workload", "alpha 3\nmachines 1\njob 0 1 nan 5\n",
           [ "line 3"; "workload must be positive and finite" ]);
          ("nan alpha", "alpha nan\nmachines 1\njob 0 1 1 5\n",
           [ "line 1"; "alpha" ]);
          ("zero machines", "alpha 3\nmachines 0\njob 0 1 1 5\n",
           [ "line 2"; "machines must be >= 1" ]);
          ("bad alpha", "alpha x\nmachines 1\njob 0 1 1 5\n",
           [ "line 1"; "bad alpha" ]);
          ("deadline before release", "alpha 3\nmachines 1\njob 2 1 1 5\n",
           [ "line 3"; "deadline" ]);
        ];
      write_file file "alpha 3\nmachines 1\njob 0 1 nan 5\n";
      List.iter
        (fun cmd ->
          check_one_line_exit_2 cmd [ cmd; file ]
            [ "psched " ^ cmd ^ ":"; "line 3"; "workload" ])
        [ "certify"; "compare"; "analyze"; "provision"; "replay"; "gantt" ];
      (* A well-formed instance an engine refuses ends the same way: PD
         raises when must-finish job 1's window is below the boundary
         tolerance.  Records already printed may precede the one
         diagnostic line. *)
      write_file file
        "alpha 3\nmachines 1\njob 0 1 1 inf\njob 0.5 0.5000000000001 1 inf\n";
      List.iter
        (fun args ->
          let name = String.concat " " args in
          let code, out = run_capture args in
          Alcotest.(check int) (name ^ ": exit 2") 2 code;
          Alcotest.(check bool)
            (name ^ ": no uncaught exception") false
            (contains out "uncaught exception");
          let marker =
            "psched " ^ List.hd args
            ^ ": Pd.arrive: job 1 must finish but its window"
          in
          match
            List.filter
              (String.starts_with ~prefix:"psched ")
              (String.split_on_char '\n' out)
          with
          | [ line ] ->
            Alcotest.(check bool)
              (name ^ ": names the refusal: " ^ line)
              true (contains line marker)
          | lines ->
            Alcotest.failf "%s: %d diagnostic lines in %S" name
              (List.length lines) out)
        [
          [ "run"; file ];
          [ "run"; "--decisions-only"; file ];
          [ "compare"; file ];
          [ "stream"; file ];
          [ "serve"; file; "--shards"; "1" ];
        ]);
  with_instance (fun path ->
      check_one_line_exit_2 "run -a oa on m=2" [ "run"; path; "-a"; "oa" ]
        [ "psched run:"; "not applicable" ])

(* The same refusal followed by 2998 accepted arrivals: on a worker
   domain it surfaces at whichever later submit finds it, inline at its
   own.  The diagnostic names no line, so it reads the same at every
   worker and CPU count. *)
let test_serve_refusal_line_stable () =
  with_tmp_dir (fun dir ->
      let file = Filename.concat dir "refused.txt" in
      let b = Buffer.create 65536 in
      Buffer.add_string b
        "alpha 3\nmachines 1\njob 0 1 1 inf\njob 0.5 0.5000000000001 1 inf\n";
      for i = 2 to 2999 do
        Printf.bprintf b "job %d %d 0.5 1\n" i (i + 5)
      done;
      write_file file (Buffer.contents b);
      let diagnostic ~pinned workers =
        let code, err =
          run_capture ~pinned ~stderr_only:true
            [ "serve"; file; "--shards"; "1"; "--workers"; workers ]
        in
        Alcotest.(check int) ("--workers " ^ workers ^ ": exit 2") 2 code;
        err
      in
      let one = diagnostic ~pinned:false "1" in
      Alcotest.(check bool)
        ("names the refusal: " ^ one) true
        (String.starts_with ~prefix:"psched serve: Pd.arrive: job 1 " one
        && List.length (String.split_on_char '\n' (String.trim one)) = 1);
      Alcotest.(check string) "--workers 2" one (diagnostic ~pinned:false "2");
      Alcotest.(check string) "pinned --workers 1" one
        (diagnostic ~pinned:true "1"))

(* ---------------- stream error paths ---------------- *)

(* Malformed streams must die with a line-numbered one-liner on stderr
   and exit status 2 — never an uncaught exception with a backtrace —
   through either stream loop, since both read with Io.read_stream. *)
let with_stream text f =
  let path = Filename.temp_file "psched" ".stream" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc text;
      close_out oc;
      f path)

let check_stream_error name text markers =
  with_stream text (fun path ->
      List.iter
        (fun args ->
          let name = List.hd args ^ " " ^ name in
          let code, out = run_capture args in
          Alcotest.(check int) (name ^ ": exit 2") 2 code;
          Alcotest.(check bool)
            (name ^ ": no backtrace") false
            (contains out "Raised at");
          List.iter
            (fun m ->
              Alcotest.(check bool)
                (Printf.sprintf "%s: mentions %S" name m)
                true (contains out m))
            markers)
        [ [ "stream"; path ]; [ "serve"; path; "--shards"; "1" ] ])

let test_stream_rejects_malformed () =
  check_stream_error "nan workload" "alpha 3\nmachines 1\njob 0 1 nan 5\n"
    [ "line 3"; "workload must be positive and finite" ];
  check_stream_error "negative workload"
    "alpha 3\nmachines 1\njob 0 1 -2 5\n"
    [ "line 3"; "workload" ];
  check_stream_error "deadline before release"
    "alpha 3\nmachines 1\njob 2 1 1 5\n"
    [ "line 3"; "deadline" ];
  check_stream_error "nan value" "alpha 3\nmachines 1\njob 0 1 1 nan\n"
    [ "line 3"; "value must be >= 0" ];
  check_stream_error "job before alpha header" "job 0 1 1 5\n"
    [ "line 1"; "alpha" ];
  check_stream_error "job before machines header" "alpha 3\njob 0 1 1 5\n"
    [ "line 2"; "machines" ];
  check_stream_error "out-of-order arrivals"
    "alpha 3\nmachines 1\njob 5 6 1 5\njob 1 2 1 5\n"
    [ "line 4"; "release-ordered" ];
  check_stream_error "unrecognized line" "alpha 3\nbogus\n"
    [ "line 2"; "unrecognized" ];
  check_stream_error "empty stream" "alpha 3\nmachines 1\n"
    [ "no jobs in the stream" ]

let test_stream_unreadable_input () =
  let code, out = run_capture [ "stream"; "/nonexistent/stream.txt" ] in
  Alcotest.(check int) "exit 2" 2 code;
  Alcotest.(check bool) "no backtrace" false (contains out "Raised at")

let test_stream_bad_restore () =
  with_stream "alpha 3\nmachines 2\njob 0 1 1 5\n" (fun path ->
      let code, out =
        run_capture [ "serve"; path; "--restore"; "/nonexistent" ]
      in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check bool) "no backtrace" false (contains out "Raised at"))

(* `serve` is the only sharded front end: `stream` no longer takes the
   sharded flags, and passing one is a usage error. *)
let test_stream_rejects_sharded_flags () =
  with_stream "alpha 3\nmachines 2\njob 0 1 1 5\n" (fun path ->
      let code, out = run_capture [ "stream"; path; "--restore"; "/tmp" ] in
      Alcotest.(check bool) "non-zero exit" true (code <> 0);
      Alcotest.(check bool) "no backtrace" false (contains out "Raised at");
      Alcotest.(check bool)
        "names the option" true
        (contains out "--restore"))

let test_stream_sharded_needs_machines () =
  with_stream "alpha 3\nmachines 1\njob 0 1 1 5\n" (fun path ->
      let code, out = run_capture [ "serve"; path; "--shards"; "4" ] in
      Alcotest.(check int) "exit 2" 2 code;
      Alcotest.(check bool)
        "explains the split" true
        (contains out "machines >= shards"))

(* The failover loop end to end, through the real binary: run sharded,
   kill mid-stream after a checkpoint, restore, and require the stitched
   output to be byte-identical to the straight-through run.  [straight]
   and [sharded] are the flags of the straight-through and the killed
   run. *)
let check_kill_restore name ~straight ~sharded =
  with_tmp_dir (fun tmp ->
      let inst = Filename.concat tmp "inst.txt"
      and dir = Filename.concat tmp "ck" in
      let code, _ =
        run_capture
          [ "generate"; "--preset"; "random"; "-n"; "120"; "-m"; "4";
            "--seed"; "7"; "-o"; inst ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, full = run_capture ([ "serve"; inst ] @ straight) in
      Alcotest.(check int) (name ^ ": full run") 0 code;
      let code, part1 =
        run_capture
          ([ "serve"; inst ] @ sharded
          @ [ "--snapshot-dir"; dir; "--snapshot-every"; "40";
              "--kill-after"; "100" ])
      in
      Alcotest.(check int) (name ^ ": killed run exits 0") 0 code;
      let code, part2 = run_capture [ "serve"; inst; "--restore"; dir ] in
      Alcotest.(check int) (name ^ ": restored run") 0 code;
      (* records are 8 lines each; the last committed checkpoint is at
         seq 80, so the restored run re-emits from there *)
      let lines = String.split_on_char '\n' part1 in
      let prefix =
        List.filteri (fun i _ -> i < 8 * 80) lines |> String.concat "\n"
      in
      Alcotest.(check string)
        (name ^ ": stitched output equals the straight-through run")
        full
        (prefix ^ "\n" ^ part2))

(* The inline path writes the wire bytes the worker domains do: the
   golden `serve --shards 2` output, pinned to one CPU. *)
let test_serve_pinned_golden () =
  with_tmp_dir (fun dir ->
      let inst = Filename.concat dir "golden-inst.txt" in
      let code, _ =
        run_capture
          [ "generate"; "--preset"; "datacenter"; "-n"; "200"; "-m"; "4";
            "--seed"; "7"; "-o"; inst ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, out =
        run_capture ~pinned:true
          [ "serve"; inst; "--shards"; "2"; "--workers"; "1" ]
      in
      Alcotest.(check int) "pinned serve" 0 code;
      Alcotest.(check bool) "equals test/serve_golden.json" true
        (String.equal out (read_file "serve_golden.json")))

let test_stream_kill_restore_byte_identical () =
  check_kill_restore "k=4" ~straight:[ "--shards"; "4" ]
    ~sharded:[ "--shards"; "4" ];
  check_kill_restore "k=1"
    ~straight:[ "--shards"; "1"; "--workers"; "1" ]
    ~sharded:[ "--shards"; "1" ]

(* At --shards 1 without --snapshot-every, --snapshot-dir commits a
   checkpoint after the last arrival, which --restore reads back: it
   covers every arrival, so only the summary records remain, and they
   match the live run's. *)
let test_stream_k1_snapshot_dir_restores () =
  with_tmp_dir (fun tmp ->
      let inst = Filename.concat tmp "inst.txt"
      and dir = Filename.concat tmp "ck" in
      let code, _ =
        run_capture
          [ "generate"; "--preset"; "random"; "-n"; "60"; "-m"; "2";
            "--seed"; "7"; "-o"; inst ]
      in
      Alcotest.(check int) "generate" 0 code;
      let code, full =
        run_capture [ "serve"; inst; "--shards"; "1"; "--snapshot-dir"; dir ]
      in
      Alcotest.(check int) "--snapshot-dir run" 0 code;
      let code, back = run_capture [ "serve"; inst; "--restore"; dir ] in
      Alcotest.(check int) "restore of the k=1 checkpoint" 0 code;
      let n = String.length full and k = String.length back in
      Alcotest.(check bool)
        "restored summaries end the live run's output" true
        (k > 0 && k <= n && String.sub full (n - k) k = back))

(* Crafted restore inputs must end in a one-line exit-2 diagnostic, not
   an uncaught-exception backtrace: a digest-valid snapshot holding a
   job the model refuses, a manifest declaring zero shards, a valid
   checkpoint restored with --workers 0, and a manifest naming a shard
   file outside its directory. *)
let test_restore_crafted_inputs () =
  with_tmp_dir (fun dir ->
      let stream = Filename.concat dir "in.txt" in
      write_file stream "alpha 3\nmachines 1\njob 0 1 1 5\n";
      let manifest ?(shard_fn = "id-mix-v1") ~shards snap =
        let file = "ckpt-0-shard-0.snap" in
        write_file (Filename.concat dir file) snap;
        write_file
          (Filename.concat dir "manifest")
          (Printf.sprintf
             "service-manifest v1\nengine pd\nshard-fn %s\n\
              shards %d\nseq 0\n%s"
             shard_fn shards
             (if shards = 0 then ""
              else
                Printf.sprintf "shard 0 %s %s\n" file
                  (Digest.to_hex (Digest.string snap))))
      in
      let header = "online-snapshot v1\nengine pd\nalpha 3\nmachines 1\n" in
      manifest ~shards:1 (header ^ "job 0 1 1 1 1\n");
      check_one_line_exit_2 "deadline <= release in a snapshot"
        [ "serve"; stream; "--restore"; dir ]
        [ "line 5"; "deadline" ];
      manifest ~shards:0 header;
      check_one_line_exit_2 "zero-shard manifest"
        [ "serve"; stream; "--restore"; dir ]
        [ "shards must be >= 1" ];
      manifest ~shards:1 header;
      check_one_line_exit_2 "--workers 0"
        [ "serve"; stream; "--restore"; dir; "--workers"; "0" ]
        [ "--workers must be >= 1" ];
      (* a checkpoint routed by another partition function: the suffix
         would reach different shards *)
      manifest ~shard_fn:"id-mix-v2" ~shards:1 header;
      check_one_line_exit_2 "foreign shard-fn tag"
        [ "serve"; stream; "--restore"; dir ]
        [ "id-mix-v2"; "id-mix-v1" ];
      (* a shard file outside the checkpoint directory, digest intact *)
      let ck = Filename.concat dir "ck" in
      Sys.mkdir ck 0o755;
      write_file (Filename.concat dir "outside.snap") header;
      write_file
        (Filename.concat ck "manifest")
        (Printf.sprintf
           "service-manifest v1\nengine pd\nshard-fn id-mix-v1\nshards 1\n\
            seq 0\nshard 0 ../outside.snap %s\n"
           (Digest.to_hex (Digest.string header)));
      check_one_line_exit_2 "shard file outside the directory"
        [ "serve"; stream; "--restore"; ck ]
        [ "not a plain file name" ])

(* ---------------- slint ---------------- *)

let slint =
  let candidates =
    [ "../bin/slint.exe"; "_build/default/bin/slint.exe"; "bin/slint.exe" ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/slint.exe"

let run_slint args =
  let out = Filename.temp_file "slint" ".out" in
  let cmd =
    Printf.sprintf "%s %s > %s 2>&1" (Filename.quote slint)
      (String.concat " " (List.map Filename.quote args))
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

(* A throwaway scan root holding lib/fixture.ml with the given text (plus
   an interface so missing-mli stays quiet). *)
let with_lint_tree text f =
  let root = Filename.temp_file "slint" ".d" in
  Sys.remove root;
  Sys.mkdir root 0o755;
  Sys.mkdir (Filename.concat root "lib") 0o755;
  let rm p = if Sys.file_exists p then Sys.remove p in
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun name -> rm (Filename.concat (Filename.concat root "lib") name))
        (Sys.readdir (Filename.concat root "lib"));
      Array.iter
        (fun name ->
          let p = Filename.concat root name in
          if not (Sys.is_directory p) then rm p)
        (Sys.readdir root);
      Sys.rmdir (Filename.concat root "lib");
      Sys.rmdir root)
    (fun () ->
      write_file (Filename.concat root "lib/fixture.ml") text;
      write_file (Filename.concat root "lib/fixture.mli") "";
      f root)

let clean_source = "let f x = x + 1\n"

let racy_source =
  "let total = ref 0\n\
   let add x = total := !total + x\n\
   let go xs = Domain.spawn (fun () -> List.iter add xs)\n"

let test_slint_exit_codes () =
  with_lint_tree clean_source (fun root ->
      let code, _ = run_slint [ "--root"; root ] in
      Alcotest.(check int) "clean tree exits 0" 0 code);
  with_lint_tree racy_source (fun root ->
      let code, text = run_slint [ "--root"; root ] in
      Alcotest.(check int) "finding exits 1" 1 code;
      Alcotest.(check bool)
        "names the rule" true
        (contains text "domain-race"));
  let code, text = run_slint [ "--rules"; "no-such-rule"; "--root"; "." ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  Alcotest.(check bool) "lists known rules" true (contains text "domain-race");
  let code, text = run_slint [ "--help" ] in
  Alcotest.(check int) "help exits 0" 0 code;
  Alcotest.(check bool) "documents exit codes" true (contains text "Exit codes")

let test_slint_rule_filter () =
  with_lint_tree racy_source (fun root ->
      (* an unrelated single rule does not see the race *)
      let code, _ = run_slint [ "--root"; root; "--rules"; "float-eq" ] in
      Alcotest.(check int) "filtered rule exits 0" 0 code;
      let code, text = run_slint [ "--root"; root; "--rules"; "domain-race" ] in
      Alcotest.(check int) "selected rule exits 1" 1 code;
      Alcotest.(check bool) "reports the race" true (contains text "domain-race"))

let test_slint_sarif () =
  with_lint_tree racy_source (fun root ->
      let sarif = Filename.temp_file "slint" ".sarif" in
      Fun.protect
        ~finally:(fun () -> if Sys.file_exists sarif then Sys.remove sarif)
        (fun () ->
          let code, _ = run_slint [ "--root"; root; "--sarif"; sarif ] in
          Alcotest.(check int) "still exits 1" 1 code;
          let text = read_file sarif in
          Alcotest.(check bool)
            "sarif version" true
            (contains text {|"version":"2.1.0"|});
          Alcotest.(check bool)
            "result carries the rule id" true
            (contains text {|"ruleId":"domain-race"|});
          Alcotest.(check bool)
            "physical location present" true
            (contains text "lib/fixture.ml")))

(* Directive text assembled by concatenation so slint does not read this
   file as holding directives when scanning the tree. *)
let allow rule = "(* slint: " ^ "allow " ^ rule ^ " -- fixture reason *)"

let test_slint_directives () =
  (* a matched directive for a rule outside --rules is not reported *)
  with_lint_tree (allow "domain-race" ^ "\n" ^ racy_source) (fun root ->
      let code, text = run_slint [ "--root"; root; "--rules"; "float-eq" ] in
      Alcotest.(check int) "other rule's directive exits 0" 0 code;
      Alcotest.(check bool)
        "not reported unused" false
        (contains text "unused-suppression"));
  (* a dead directive is an error *)
  with_lint_tree ("let f x = x + 1  " ^ allow "float-eq" ^ "\n") (fun root ->
      let code, text = run_slint [ "--root"; root ] in
      Alcotest.(check int) "dead directive exits 1" 1 code;
      Alcotest.(check bool)
        "reports it unused" true
        (contains text "unused-suppression"));
  (* a directive naming no rule is a syntax error *)
  with_lint_tree ("let f x = x + 1  " ^ allow "no-such-rule" ^ "\n")
    (fun root ->
      let code, text = run_slint [ "--root"; root ] in
      Alcotest.(check int) "unknown rule directive exits 1" 1 code;
      Alcotest.(check bool)
        "reports suppress-syntax" true
        (contains text "suppress-syntax"))

let test_slint_explain () =
  let code, text = run_slint [ "--explain"; "domain-race" ] in
  Alcotest.(check int) "explain exits 0" 0 code;
  Alcotest.(check bool) "names the rule" true (contains text "domain-race");
  Alcotest.(check bool)
    "includes the doc" true
    (contains text "Atomic/Mutex");
  Alcotest.(check bool)
    "whole-program rules say so" true
    (contains text "whole-program");
  Alcotest.(check bool)
    "shows the suppression syntax" true
    (contains text ("slint: " ^ "allow"));
  let code, text = run_slint [ "--explain"; "nan-flow" ] in
  Alcotest.(check int) "nan-flow explain exits 0" 0 code;
  Alcotest.(check bool) "has an example" true (contains text "Example:");
  let code, text = run_slint [ "--explain"; "no-such-rule" ] in
  Alcotest.(check int) "unknown rule exits 2" 2 code;
  Alcotest.(check bool)
    "lists the known rules" true
    (contains text "magic-tolerance")

let () =
  Alcotest.run "cli"
    [
      ( "psched",
        [
          Alcotest.test_case "generate" `Quick test_generate_stdout;
          Alcotest.test_case "run" `Quick test_run_pd;
          Alcotest.test_case "run schedule" `Quick test_run_with_schedule;
          Alcotest.test_case "compare" `Quick test_compare;
          Alcotest.test_case "engines" `Quick test_engines;
          Alcotest.test_case "certify" `Quick test_certify;
          Alcotest.test_case "analyze" `Quick test_analyze;
          Alcotest.test_case "provision" `Quick test_provision;
          Alcotest.test_case "replay" `Quick test_replay;
          Alcotest.test_case "gantt" `Quick test_gantt;
          Alcotest.test_case "unknown algorithm" `Quick
            test_unknown_algorithm_fails;
          Alcotest.test_case "malformed instances" `Quick
            test_batch_rejects_malformed;
          Alcotest.test_case "serve refusal at any worker count" `Quick
            test_serve_refusal_line_stable;
        ] );
      ( "stream",
        [
          Alcotest.test_case "rejects malformed streams" `Quick
            test_stream_rejects_malformed;
          Alcotest.test_case "unreadable input" `Quick
            test_stream_unreadable_input;
          Alcotest.test_case "bad --restore" `Quick test_stream_bad_restore;
          Alcotest.test_case "no sharded flags on stream" `Quick
            test_stream_rejects_sharded_flags;
          Alcotest.test_case "machines < shards" `Quick
            test_stream_sharded_needs_machines;
          Alcotest.test_case "pinned serve equals golden" `Quick
            test_serve_pinned_golden;
          Alcotest.test_case "kill/restore byte-identical" `Quick
            test_stream_kill_restore_byte_identical;
          Alcotest.test_case "k=1 --snapshot-dir restores" `Quick
            test_stream_k1_snapshot_dir_restores;
          Alcotest.test_case "crafted restore inputs" `Quick
            test_restore_crafted_inputs;
        ] );
      ( "slint",
        [
          Alcotest.test_case "exit codes" `Quick test_slint_exit_codes;
          Alcotest.test_case "--rule filter" `Quick test_slint_rule_filter;
          Alcotest.test_case "--sarif" `Quick test_slint_sarif;
          Alcotest.test_case "directives" `Quick test_slint_directives;
          Alcotest.test_case "--explain" `Quick test_slint_explain;
        ] );
    ]
