(* Tests for the structured benchmark-result model (lib/obs): the
   canonical JSON layer, the record schema round trip, the checked-in
   golden fixture, and the domain-parallel ordered runner. *)

open Speedscale_obs

let parse_ok s =
  match Json.of_string s with
  | Ok v -> v
  | Error e -> Alcotest.failf "parse %S: %s" s e

let parse_err name s =
  match Json.of_string s with
  | Ok v -> Alcotest.failf "%s: %S parsed as %s" name s (Json.to_string v)
  | Error _ -> ()

let read_all path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

(* ------------------------------------------------------------------ *)
(* Json: parsing                                                       *)
(* ------------------------------------------------------------------ *)

let test_json_parse_basics () =
  let v = parse_ok {|{"a": 1, "b": [true, null, "x"], "c": -2.5}|} in
  (match Json.member "a" v with
  | Some a -> Alcotest.(check (result int string)) "int" (Ok 1) (Json.to_int a)
  | None -> Alcotest.fail "missing a");
  (match Json.member "b" v with
  | Some (Json.List [ Json.Bool true; Json.Null; Json.Str "x" ]) -> ()
  | _ -> Alcotest.fail "list shape");
  (match Json.member "c" v with
  | Some c ->
    Alcotest.(check (result (float 0.0) string)) "float" (Ok (-2.5))
      (Json.to_float c)
  | None -> Alcotest.fail "missing c");
  Alcotest.(check bool) "absent member" true (Json.member "zzz" v = None);
  (* to_float accepts Int: JSON does not distinguish *)
  Alcotest.(check (result (float 0.0) string)) "int as float" (Ok 7.0)
    (Json.to_float (Json.Int 7))

let test_json_parse_escapes () =
  (match parse_ok {|"A\n\t\\\"/"|} with
  | Json.Str s -> Alcotest.(check string) "escapes" "A\n\t\\\"/" s
  | _ -> Alcotest.fail "not a string");
  (* \uXXXX above ASCII decodes to UTF-8 bytes *)
  (match parse_ok {|"é"|} with
  | Json.Str s -> Alcotest.(check string) "utf8" "\xc3\xa9" s
  | _ -> Alcotest.fail "not a string")

let test_json_parse_errors () =
  parse_err "unclosed list" "[1,";
  parse_err "trailing garbage" {|{"a": 1} x|};
  parse_err "bare surrogate" {|"\ud800"|};
  parse_err "truncated keyword" "tru";
  parse_err "missing colon" {|{"a" 1}|};
  parse_err "empty input" "";
  parse_err "unterminated string" {|"abc|}

let test_json_nonfinite_tokens () =
  Alcotest.(check string) "inf" "Infinity" (Json.to_string (Json.Float Float.infinity));
  Alcotest.(check string) "-inf" "-Infinity"
    (Json.to_string (Json.Float Float.neg_infinity));
  Alcotest.(check string) "nan" "NaN" (Json.to_string (Json.Float Float.nan));
  let v = Json.List [ Json.Float Float.nan; Json.Float Float.neg_infinity ] in
  Alcotest.(check bool) "round trip" true
    (Json.equal v (parse_ok (Json.to_string v)))

let test_json_float_format () =
  Alcotest.(check string) "integral keeps .0" "3.0" (Json.float_to_string 3.0);
  Alcotest.(check string) "negative zero" "-0.0" (Json.float_to_string (-0.0));
  List.iter
    (fun x ->
      let s = Json.float_to_string x in
      Alcotest.(check bool)
        (Printf.sprintf "%s round-trips bitwise" s)
        true
        (Int64.equal (Int64.bits_of_float x)
           (Int64.bits_of_float (float_of_string s))))
    [ 0.1; 1.0 /. 3.0; 1e300; 4.9e-324; Float.max_float; 2.834168375169046 ]

(* Random values exercise the shortest-round-trip widening and escaping. *)
let gen_scalar_float =
  QCheck.Gen.(
    oneof
      [
        float_range (-1e6) 1e6;
        oneofl
          [ 0.0; -0.0; 1e-9; 1e300; 4.9e-324; Float.infinity;
            Float.neg_infinity; Float.nan ];
        map
          (fun (m, e) -> m *. (10.0 ** float_of_int e))
          (pair (float_range (-1.0) 1.0) (int_range (-30) 30));
      ])

let gen_name =
  QCheck.Gen.(
    map (String.concat "")
      (list_size (1 -- 10)
         (oneofl [ "a"; "B"; "0"; "/"; "_"; "-"; "\xc3\xa9"; "\""; "\\"; "\n" ])))

let prop_json_float_roundtrip =
  QCheck.Test.make ~name:"float_to_string round-trips every bit pattern"
    ~count:500
    (QCheck.make gen_scalar_float ~print:Json.float_to_string)
    (fun x ->
      let y = float_of_string (Json.float_to_string x) in
      (Float.is_nan x && Float.is_nan y)
      || Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))

let prop_json_string_roundtrip =
  QCheck.Test.make ~name:"string escaping round-trips arbitrary bytes"
    ~count:500
    (QCheck.make gen_name ~print:(fun s -> s))
    (fun s ->
      match Json.of_string (Json.to_string (Json.Str s)) with
      | Ok (Json.Str s') -> String.equal s s'
      | _ -> false)

(* ------------------------------------------------------------------ *)
(* Record: schema round trip                                           *)
(* ------------------------------------------------------------------ *)

let gen_param =
  QCheck.Gen.(
    oneof
      [
        map (fun i -> Record.P_int i) small_signed_int;
        map (fun f -> Record.P_float f) gen_scalar_float;
        map (fun s -> Record.P_str s) gen_name;
        map (fun b -> Record.P_bool b) bool;
      ])

let gen_timing =
  QCheck.Gen.map (fun wall_s -> { Record.wall_s }) (QCheck.Gen.float_range 0.0 1e4)

let gen_record =
  QCheck.Gen.(
    map
      (fun (id, kind, params, metrics, (counters, verdict, timing)) ->
        {
          Record.id;
          kind = (if kind then Record.Experiment else Record.Timing);
          params;
          metrics;
          counters;
          verdict;
          timing;
        })
      (tup5 gen_name bool
         (list_size (0 -- 4) (pair gen_name gen_param))
         (list_size (0 -- 4) (pair gen_name gen_scalar_float))
         (triple
            (list_size (0 -- 4) (pair gen_name small_signed_int))
            (option bool)
            (option gen_timing))))

let gen_file =
  QCheck.Gen.(
    map
      (fun (jobs, records) ->
        {
          Record.version = Record.schema_version;
          env = Record.current_env ~jobs;
          records;
        })
      (pair (int_range 1 8) (list_size (0 -- 8) gen_record)))

let arb_file =
  QCheck.make gen_file ~print:(fun f -> Record.encode_file f)

(* On failure, name the first component that differs — "the files are not
   equal" is useless for a 50-line counterexample. *)
let explain_mismatch (a : Record.file) (b : Record.file) =
  if a.version <> b.version then Some "version"
  else if not (a.env = b.env) then Some "env"
  else if List.length a.records <> List.length b.records then
    Some "record count"
  else
    List.find_mapi
      (fun i ((ra : Record.t), (rb : Record.t)) ->
        if not (Record.equal ra rb) then
          let section =
            if not (String.equal ra.id rb.id) then "id"
            else if ra.kind <> rb.kind then "kind"
            else if not (ra.params = rb.params) then "params"
            else if
              not
                (List.length ra.metrics = List.length rb.metrics
                && List.for_all2
                     (fun (k1, v1) (k2, v2) ->
                       String.equal k1 k2 && Float.equal v1 v2)
                     ra.metrics rb.metrics)
            then "metrics"
            else if not (ra.counters = rb.counters) then "counters"
            else if ra.verdict <> rb.verdict then "verdict"
            else "timing"
          in
          let param_repr = function
            | Record.P_int i -> Printf.sprintf "P_int %d" i
            | Record.P_float f -> Printf.sprintf "P_float %h" f
            | Record.P_str s -> Printf.sprintf "P_str %S" s
            | Record.P_bool b -> Printf.sprintf "P_bool %b" b
          in
          let params_repr ps =
            String.concat "; "
              (List.map
                 (fun (k, p) -> Printf.sprintf "%S -> %s" k (param_repr p))
                 ps)
          in
          Some
            (Printf.sprintf "record %d (%s) %s:\n  orig:    %s\n  decoded: %s"
               i ra.id section
               (params_repr ra.params)
               (params_repr rb.params))
        else None)
      (List.combine a.records b.records)

let prop_record_file_roundtrip =
  QCheck.Test.make ~name:"decode_file (encode_file f) = f" ~count:300 arb_file
    (fun f ->
      match Record.decode_file (Record.encode_file f) with
      | Ok f' -> (
        match explain_mismatch f f' with
        | None -> true
        | Some what -> QCheck.Test.fail_reportf "differs at %s" what)
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let prop_record_encode_stable =
  QCheck.Test.make ~name:"encode is canonical: encode (decode (encode f)) = encode f"
    ~count:300 arb_file (fun f ->
      let bytes1 = Record.encode_file f in
      match Record.decode_file bytes1 with
      | Ok f' -> String.equal bytes1 (Record.encode_file f')
      | Error e -> QCheck.Test.fail_reportf "decode failed: %s" e)

let test_record_wrong_schema_rejected () =
  let f =
    {
      Record.version = Record.schema_version;
      env = Record.current_env ~jobs:1;
      records = [];
    }
  in
  let text = Record.encode_file f in
  let needle = Printf.sprintf "\"schema_version\": %d" Record.schema_version in
  let i =
    let rec find i =
      if String.sub text i (String.length needle) = needle then i
      else find (i + 1)
    in
    find 0
  in
  let bumped =
    String.sub text 0 i ^ "\"schema_version\": 999"
    ^ String.sub text
        (i + String.length needle)
        (String.length text - i - String.length needle)
  in
  match Record.decode_file bumped with
  | Ok _ -> Alcotest.fail "schema version 999 must be rejected"
  | Error e ->
    Alcotest.(check bool) "message names the version" true
      (let sub = "999" in
       let n = String.length e and k = String.length sub in
       let rec go i = i + k <= n && (String.sub e i k = sub || go (i + 1)) in
       go 0)

let test_record_with_wall () =
  let r = Record.make ~id:"X" Record.Experiment in
  let r1 = Record.with_wall ~wall_s:2.5 r in
  (match r1.timing with
  | Some { wall_s = w } -> Alcotest.(check (float 0.0)) "filled" 2.5 w
  | None -> Alcotest.fail "wall not filled");
  (* an existing wall-clock is never overwritten *)
  let r2 = Record.with_wall ~wall_s:9.9 r1 in
  (match r2.timing with
  | Some { wall_s = w } -> Alcotest.(check (float 0.0)) "kept" 2.5 w
  | None -> Alcotest.fail "wall lost");
  Alcotest.(check bool) "equal_modulo_timing ignores it" true
    (Record.equal_modulo_timing r r2);
  Alcotest.(check bool) "equal sees it" false (Record.equal r r2);
  Alcotest.(check bool) "strip_timing restores equality" true
    (Record.equal r (Record.strip_timing r2))

let test_record_read_missing_file () =
  match Record.read_file ~path:"/nonexistent/bench.json" with
  | Ok _ -> Alcotest.fail "missing file must be an Error"
  | Error _ -> ()

(* ------------------------------------------------------------------ *)
(* Golden fixture                                                      *)
(* ------------------------------------------------------------------ *)

(* bench_golden.json was produced by `bench/main.exe E2 E3 --jobs 2 --json`
   and checked in.  Decoding it and re-encoding must reproduce the exact
   bytes — any drift in the schema or the canonical encoder shows up here
   as a diff against a file under version control. *)
let test_golden_fixture () =
  let candidates =
    [ "bench_golden.json"; "test/bench_golden.json";
      "_build/default/test/bench_golden.json" ]
  in
  let path =
    match List.find_opt Sys.file_exists candidates with
    | Some p -> p
    | None -> Alcotest.fail "bench_golden.json not found"
  in
  let raw = read_all path in
  match Record.decode_file raw with
  | Error e -> Alcotest.failf "golden fixture does not decode: %s" e
  | Ok f ->
    Alcotest.(check int) "schema version" Record.schema_version f.version;
    Alcotest.(check int) "jobs recorded" 2 f.env.jobs;
    let e2 =
      match List.find_opt (fun (r : Record.t) -> r.id = "E2") f.records with
      | Some r -> r
      | None -> Alcotest.fail "no E2 record in fixture"
    in
    Alcotest.(check (option bool)) "E2 verdict CONFIRMED" (Some true)
      e2.verdict;
    Alcotest.(check bool) "E2 has the alpha=2 ratio metric" true
      (List.mem_assoc "final_ratio_alpha2" e2.metrics);
    (match e2.timing with
    | Some { wall_s = w } ->
      Alcotest.(check bool) "wall-clock positive" true (w > 0.0)
    | None -> Alcotest.fail "E2 record carries no wall-clock");
    Alcotest.(check string) "re-encode reproduces the bytes" raw
      (Record.encode_file f)

(* ------------------------------------------------------------------ *)
(* Runner                                                              *)
(* ------------------------------------------------------------------ *)

let test_runner_default_jobs () =
  let j = Runner.default_jobs () in
  Alcotest.(check bool) "clamped to 1..8" true (j >= 1 && j <= 8)

let test_runner_ordered_results () =
  let xs = List.init 100 Fun.id in
  let expected = List.map (fun x -> x * x) xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (list int))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Runner.map ~jobs (fun x -> x * x) xs))
    [ 1; 2; 4; 7 ]

let test_runner_empty_and_fewer_tasks_than_jobs () =
  Alcotest.(check (list int)) "empty" [] (Runner.map ~jobs:4 succ []);
  Alcotest.(check (list int)) "2 tasks, 8 jobs" [ 1; 2 ]
    (Runner.map ~jobs:8 succ [ 0; 1 ])

let test_runner_exception_propagation () =
  (* the earliest failing index wins, deterministically, at any jobs *)
  List.iter
    (fun jobs ->
      Alcotest.check_raises
        (Printf.sprintf "jobs=%d" jobs)
        (Failure "boom 3")
        (fun () ->
          ignore
            (Runner.map ~jobs
               (fun i ->
                 if i mod 7 = 3 then failwith (Printf.sprintf "boom %d" i)
                 else i)
               (List.init 40 Fun.id))))
    [ 1; 4 ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "parse basics" `Quick test_json_parse_basics;
          Alcotest.test_case "escapes" `Quick test_json_parse_escapes;
          Alcotest.test_case "errors" `Quick test_json_parse_errors;
          Alcotest.test_case "non-finite tokens" `Quick
            test_json_nonfinite_tokens;
          Alcotest.test_case "float format" `Quick test_json_float_format;
          q prop_json_float_roundtrip;
          q prop_json_string_roundtrip;
        ] );
      ( "record",
        [
          q prop_record_file_roundtrip;
          q prop_record_encode_stable;
          Alcotest.test_case "wrong schema rejected" `Quick
            test_record_wrong_schema_rejected;
          Alcotest.test_case "with_wall" `Quick test_record_with_wall;
          Alcotest.test_case "missing file" `Quick
            test_record_read_missing_file;
        ] );
      ( "golden",
        [ Alcotest.test_case "fixture byte-stable" `Quick test_golden_fixture ] );
      ( "runner",
        [
          Alcotest.test_case "default jobs" `Quick test_runner_default_jobs;
          Alcotest.test_case "ordered results" `Quick
            test_runner_ordered_results;
          Alcotest.test_case "edge sizes" `Quick
            test_runner_empty_and_fewer_tasks_than_jobs;
          Alcotest.test_case "exception propagation" `Quick
            test_runner_exception_propagation;
        ] );
    ]
