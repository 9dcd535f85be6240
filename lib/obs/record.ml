type kind = Experiment | Timing

type param = P_int of int | P_float of float | P_str of string | P_bool of bool

type timing = { wall_s : float }

type t = {
  id : string;
  kind : kind;
  params : (string * param) list;
  metrics : (string * float) list;
  counters : (string * int) list;
  verdict : bool option;
  timing : timing option;
}

type env = {
  ocaml_version : string;
  word_size : int;
  os_type : string;
  jobs : int;
}

type file = { version : int; env : env; records : t list }

let schema_version = 1

let make ~id ?(params = []) ?(metrics = []) ?(counters = []) ?verdict ?timing
    kind =
  { id; kind; params; metrics; counters; verdict; timing }

let with_wall ~wall_s r =
  match r.timing with None -> { r with timing = Some { wall_s } } | Some _ -> r

let strip_timing r = { r with timing = None }

(* ------------------------------------------------------------------ *)
(* Equality                                                            *)
(* ------------------------------------------------------------------ *)

let equal_param a b =
  match (a, b) with
  | P_int x, P_int y -> Int.equal x y
  | P_float x, P_float y -> Float.equal x y
  | P_str x, P_str y -> String.equal x y
  | P_bool x, P_bool y -> Bool.equal x y
  | (P_int _ | P_float _ | P_str _ | P_bool _), _ -> false

let equal_assoc eq_v xs ys =
  List.length xs = List.length ys
  && List.for_all2
       (fun (k1, v1) (k2, v2) -> String.equal k1 k2 && eq_v v1 v2)
       xs ys

let equal_kind a b =
  match (a, b) with
  | Experiment, Experiment | Timing, Timing -> true
  | (Experiment | Timing), _ -> false

let equal_timing a b = Float.equal a.wall_s b.wall_s

let equal_modulo_timing a b =
  String.equal a.id b.id && equal_kind a.kind b.kind
  && equal_assoc equal_param a.params b.params
  && equal_assoc Float.equal a.metrics b.metrics
  && equal_assoc Int.equal a.counters b.counters
  && Option.equal Bool.equal a.verdict b.verdict

let equal a b =
  equal_modulo_timing a b && Option.equal equal_timing a.timing b.timing

let equal_env a b =
  String.equal a.ocaml_version b.ocaml_version
  && Int.equal a.word_size b.word_size
  && String.equal a.os_type b.os_type
  && Int.equal a.jobs b.jobs

let equal_file a b =
  Int.equal a.version b.version && equal_env a.env b.env
  && List.length a.records = List.length b.records
  && List.for_all2 equal a.records b.records

let current_env ~jobs =
  {
    ocaml_version = Sys.ocaml_version;
    word_size = Sys.word_size;
    os_type = Sys.os_type;
    jobs;
  }

(* ------------------------------------------------------------------ *)
(* JSON encoding                                                       *)
(* ------------------------------------------------------------------ *)

let kind_to_string = function Experiment -> "experiment" | Timing -> "timing"

let kind_of_string = function
  | "experiment" -> Ok Experiment
  | "timing" -> Ok Timing
  | other -> Error (Fmt.str "unknown record kind %S" other)

let param_to_json = function
  | P_int i -> Json.Int i
  | P_float f -> Json.Float f
  | P_str s -> Json.Str s
  | P_bool b -> Json.Bool b

let param_of_json = function
  | Json.Int i -> Ok (P_int i)
  | Json.Float f -> Ok (P_float f)
  | Json.Str s -> Ok (P_str s)
  | Json.Bool b -> Ok (P_bool b)
  | Json.Null | Json.List _ | Json.Obj _ ->
    Error "parameters must be scalars"

let timing_to_json t = Json.Obj [ ("wall_s", Json.Float t.wall_s) ]

let to_json r =
  let base =
    [
      ("id", Json.Str r.id);
      ("kind", Json.Str (kind_to_string r.kind));
      ("params", Json.Obj (List.map (fun (k, p) -> (k, param_to_json p)) r.params));
      ("metrics", Json.Obj (List.map (fun (k, f) -> (k, Json.Float f)) r.metrics));
      ("counters", Json.Obj (List.map (fun (k, i) -> (k, Json.Int i)) r.counters));
    ]
  in
  let with_verdict =
    match r.verdict with
    | None -> base
    | Some b -> base @ [ ("verdict", Json.Bool b) ]
  in
  let with_timing =
    match r.timing with
    | None -> with_verdict
    | Some t -> with_verdict @ [ ("timing", timing_to_json t) ]
  in
  Json.Obj with_timing

(* ------------------------------------------------------------------ *)
(* JSON decoding                                                       *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = Result.bind r f

let field name conv json =
  match Json.member name json with
  | None -> Error (Fmt.str "missing field %S" name)
  | Some v -> (
    match conv v with
    | Ok x -> Ok x
    | Error e -> Error (Fmt.str "field %S: %s" name e))

let optional_field name conv json =
  match Json.member name json with
  | None -> Ok None
  | Some v -> (
    match conv v with
    | Ok x -> Ok (Some x)
    | Error e -> Error (Fmt.str "field %S: %s" name e))

let assoc_field name conv json =
  match Json.member name json with
  | None -> Ok []
  | Some (Json.Obj fields) ->
    List.fold_left
      (fun acc (k, v) ->
        let* acc = acc in
        match conv v with
        | Ok x -> Ok ((k, x) :: acc)
        | Error e -> Error (Fmt.str "field %S, key %S: %s" name k e))
      (Ok []) fields
    |> Result.map List.rev
  | Some v ->
    Error (Fmt.str "field %S: expected an object, found %s" name
             (Json.to_string v))

let timing_of_json json =
  let* wall_s = field "wall_s" Json.to_float json in
  Ok { wall_s }

let of_json json =
  let* id = field "id" Json.to_str json in
  let* kind_s = field "kind" Json.to_str json in
  let* kind = kind_of_string kind_s in
  let* params = assoc_field "params" param_of_json json in
  let* metrics = assoc_field "metrics" Json.to_float json in
  let* counters = assoc_field "counters" Json.to_int json in
  let* verdict = optional_field "verdict" Json.to_bool json in
  let* timing = optional_field "timing" timing_of_json json in
  Ok { id; kind; params; metrics; counters; verdict; timing }

let env_to_json e =
  Json.Obj
    [
      ("ocaml_version", Json.Str e.ocaml_version);
      ("word_size", Json.Int e.word_size);
      ("os_type", Json.Str e.os_type);
      ("jobs", Json.Int e.jobs);
    ]

let env_of_json json =
  let* ocaml_version = field "ocaml_version" Json.to_str json in
  let* word_size = field "word_size" Json.to_int json in
  let* os_type = field "os_type" Json.to_str json in
  let* jobs = field "jobs" Json.to_int json in
  Ok { ocaml_version; word_size; os_type; jobs }

let file_to_json f =
  Json.Obj
    [
      ("schema_version", Json.Int f.version);
      ("env", env_to_json f.env);
      ("records", Json.List (List.map to_json f.records));
    ]

let file_of_json json =
  let* version = field "schema_version" Json.to_int json in
  if version <> schema_version then
    Error
      (Fmt.str "unsupported schema version %d (this build reads %d)" version
         schema_version)
  else
    let* env = field "env" env_of_json json in
    let* items = field "records" Json.to_list json in
    let* records =
      List.fold_left
        (fun acc item ->
          let* acc = acc in
          let* r = of_json item in
          Ok (r :: acc))
        (Ok []) items
    in
    Ok { version; env; records = List.rev records }

let encode_file f = Json.to_string (file_to_json f) ^ "\n"

let decode_file s =
  let* json = Json.of_string s in
  file_of_json json

let write_file ~path f =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (encode_file f))

let read_file ~path =
  if not (Sys.file_exists path) then Error (Fmt.str "no such file: %s" path)
  else
    let ic = open_in_bin path in
    let text =
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    in
    decode_file text
