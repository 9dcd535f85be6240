(* Clock, order statistics, files and host facts for the benchmark. *)

(* Monotonic nanosecond clock (CLOCK_MONOTONIC), as seconds.  Wall-clock
   time can step under NTP; a latency sample must not. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("perfbench: " ^ msg);
      exit 1)
    fmt

(* ------------------------------------------------------------------ *)
(* Order statistics                                                     *)
(* ------------------------------------------------------------------ *)

let sorted a =
  let c = Array.copy a in
  Array.sort Float.compare c;
  c

(* Linearly interpolated quantile ([q] in [0, 1]) of a non-empty sample,
   the same rule as numpy's default and Python's "inclusive" method. *)
let quantile a q =
  let s = sorted a in
  let n = Array.length s in
  if n = 0 then invalid_arg "Pb_util.quantile: empty sample";
  let h = q *. float_of_int (n - 1) in
  let i = int_of_float (Float.floor h) in
  if i >= n - 1 then s.(n - 1)
  else s.(i) +. ((h -. float_of_int i) *. (s.(i + 1) -. s.(i)))

let median a = quantile a 0.5
let median_l l = median (Array.of_list l)
let sum a = Array.fold_left ( +. ) 0. a

(* ------------------------------------------------------------------ *)
(* Files                                                                *)
(* ------------------------------------------------------------------ *)

(* Reads to end of file rather than trusting the length, which /proc
   files report as 0. *)
let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      let b = Buffer.create 65536 in
      let chunk = Bytes.create 65536 in
      let rec go () =
        let got = input ic chunk 0 (Bytes.length chunk) in
        if got > 0 then begin
          Buffer.add_subbytes b chunk 0 got;
          go ()
        end
      in
      go ();
      Buffer.contents b)

let write_file path text =
  let oc = open_out_bin path in
  Fun.protect ~finally:(fun () -> close_out oc) (fun () -> output_string oc text)

let file_size path = (Unix.stat path).Unix.st_size

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    Unix.mkdir dir 0o755
  end

(* Remove every plain file in [dir] (the benchmark's own scratch
   directories hold no subdirectories). *)
let clear_dir dir =
  mkdir_p dir;
  Array.iter
    (fun f -> Sys.remove (Filename.concat dir f))
    (Sys.readdir dir)

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

(* ------------------------------------------------------------------ *)
(* Host record                                                          *)
(* ------------------------------------------------------------------ *)

(* Fixed-work kernel: generate 50k pseudo-random floats with an LCG,
   sort them, and fold them.  It allocates, compares and streams memory
   like the code under test, so host drift between runs shows in its
   time.  It is recorded beside the metrics and never used to rescale
   them. *)
let calib_kernel () =
  let n = 50_000 in
  let x = ref 12345 in
  let a =
    Array.init n (fun _ ->
        x := ((!x * 1103515245) + 12345) land 0x3FFFFFFF;
        float_of_int !x /. 1073741824.)
  in
  Array.sort Float.compare a;
  Array.fold_left (fun acc v -> acc +. (v *. v)) 0. a

let calib_ms () =
  let sample () =
    let t0 = now () in
    ignore (Sys.opaque_identity (calib_kernel ()));
    (now () -. t0) *. 1e3
  in
  median (Array.init 5 (fun _ -> sample ()))

let loadavg () =
  match read_file "/proc/loadavg" with
  | text -> (
    match String.split_on_char ' ' text with
    | first :: _ -> first
    | [] -> "n/a")
  | exception Sys_error _ -> "n/a"

(* The fields of the /proc/self/status line starting with [key]. *)
let status_field key =
  let text =
    try read_file "/proc/self/status"
    with Sys_error m -> fail "cannot read /proc/self/status: %s" m
  in
  List.find_map
    (fun l ->
      if String.starts_with ~prefix:key l then
        Some
          (String.split_on_char ' ' l
          |> List.concat_map (String.split_on_char '\t')
          |> List.filter (fun s -> s <> ""))
      else None)
    (String.split_on_char '\n' text)

let cpus_allowed () =
  match status_field "Cpus_allowed_list:" with
  | Some [ _; cpus ] -> cpus
  | _ -> "n/a"

(* Peak resident set size of this process (VmHWM), in MB. *)
let peak_rss_mb () =
  match status_field "VmHWM:" with
  | None -> fail "no VmHWM line in /proc/self/status"
  | Some fields -> (
    match fields with
    | [ _; kb; "kB" ] -> float_of_string kb /. 1024.
    | _ -> fail "unexpected VmHWM line %S" (String.concat " " fields))
