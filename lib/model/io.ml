(* ------------------------------------------------------------------ *)
(* The line grammar and the field checks                                *)
(* ------------------------------------------------------------------ *)

let tokens line =
  let line = String.trim line in
  if line = "" || line.[0] = '#' then []
  else String.split_on_char ' ' line |> List.filter (fun w -> w <> "")

let fail ~line fmt =
  Fmt.kstr (fun m -> failwith (Fmt.str "line %d: %s" line m)) fmt

let number ~line what v =
  match float_of_string_opt v with
  | Some f -> f
  | None -> fail ~line "bad %s %S" what v

(* The model constructors validate with Invalid_argument; here their
   complaints are input errors on a known line. *)
let power ~line v =
  match Power.make (number ~line "alpha" v) with
  | p -> p
  | exception Invalid_argument m -> fail ~line "%s" m

let machines ~line v =
  match int_of_string_opt v with
  | Some m when m >= 1 -> m
  | Some m -> fail ~line "machines must be >= 1, got %d" m
  | None -> fail ~line "bad machines %S" v

let job ~line ~id r d w v =
  let release = number ~line "release" r
  and deadline = number ~line "deadline" d
  and workload = number ~line "workload" w
  and value = number ~line "value" v in
  match Job.make ~id ~release ~deadline ~workload ~value with
  | j -> j
  | exception Invalid_argument m -> fail ~line "%s" m

(* %.17g round-trips every finite float and prints infinity as "inf",
   which [number] reads back. *)
let g17 x = Speedscale_util.Cfmt.float "%.17g" x

let job_line ?id (j : Job.t) =
  let fields = [ g17 j.release; g17 j.deadline; g17 j.workload; g17 j.value ] in
  let fields =
    match id with None -> fields | Some id -> string_of_int id :: fields
  in
  String.concat " " ("job" :: fields) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Instance files                                                       *)
(* ------------------------------------------------------------------ *)

let to_string (inst : Instance.t) =
  let b = Buffer.create 256 in
  Buffer.add_string b (Fmt.str "alpha %.17g\n" (Power.alpha inst.power));
  Buffer.add_string b (Fmt.str "machines %d\n" inst.machines);
  Buffer.add_string b "# release deadline workload value\n";
  Array.iter (fun j -> Buffer.add_string b (job_line j)) inst.jobs;
  Buffer.contents b

let of_string s =
  let alpha = ref None and machines_ = ref None in
  let jobs = ref [] and n_jobs = ref 0 in
  String.split_on_char '\n' s
  |> List.iteri (fun i text ->
         let line = i + 1 in
         match tokens text with
         | [] -> ()
         | [ "alpha"; v ] -> alpha := Some (power ~line v)
         | [ "machines"; v ] -> machines_ := Some (machines ~line v)
         | [ "job"; r; d; w; v ] ->
           jobs := job ~line ~id:!n_jobs r d w v :: !jobs;
           incr n_jobs
         | _ -> fail ~line "unrecognized %S" (String.trim text));
  let need what = function
    | Some v -> v
    | None -> failwith (Fmt.str "missing '%s' line" what)
  in
  let power = need "alpha" !alpha and machines = need "machines" !machines_ in
  if !jobs = [] then failwith "no jobs";
  Instance.make ~power ~machines (List.rev !jobs)

let save path inst =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_string inst))

let load path =
  let ic = open_in path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let n = in_channel_length ic in
      of_string (really_input_string ic n))

(* ------------------------------------------------------------------ *)
(* Arrival streams                                                      *)
(* ------------------------------------------------------------------ *)

let read_stream ic ~start ~arrive =
  let alpha = ref None and machines_ = ref None and state = ref None in
  let n_jobs = ref 0 and last_release = ref Float.neg_infinity in
  let header ~line name =
    if !n_jobs > 0 then fail ~line "'%s' header after the first job" name
  in
  let rec loop line =
    match input_line ic with
    | exception End_of_file -> ()
    | text ->
      (match tokens text with
      | [] -> ()
      | [ "alpha"; v ] ->
        header ~line "alpha";
        alpha := Some (power ~line v)
      | [ "machines"; v ] ->
        header ~line "machines";
        machines_ := Some (machines ~line v)
      | [ "job"; r; d; w; v ] ->
        let j = job ~line ~id:!n_jobs r d w v in
        if j.release < !last_release then
          fail ~line
            "release %s is before the previous arrival (%g); streams must \
             be release-ordered"
            r !last_release;
        last_release := j.release;
        incr n_jobs;
        let st =
          match !state with
          | Some st -> st
          | None ->
            let need what = function
              | Some v -> v
              | None -> fail ~line "job before the '%s' header line" what
            in
            let power = need "alpha" !alpha in
            let machines = need "machines" !machines_ in
            let st = start ~line ~power ~machines in
            state := Some st;
            st
        in
        arrive st ~line j
      | _ -> fail ~line "unrecognized %S" (String.trim text));
      loop (line + 1)
  in
  loop 1;
  match !state with Some st -> st | None -> failwith "no jobs in the stream"
