open Speedscale_util

type slice = { proc : int; t0 : float; t1 : float; job : int; speed : float }

(* The slices as [len] flat records of [slice_words] floats: a float
   array's contents are never scanned by the collector and cost one word
   per field, where a list of boxed records costs about three times that
   and is all promoted when it survives a minor collection. *)
type records = { buf : float array; len : int }
type t = { machines : int; rejected : int list; records : records }

(* ------------------------------------------------------------------ *)
(* Record layout                                                        *)
(* ------------------------------------------------------------------ *)

let slice_words = 5

(* Slot [n] holds proc, t0, t1, job, speed at [buf.(5 n) .. buf.(5 n + 4)]. *)
let write_slice (buf : float array) n s =
  let o = slice_words * n in
  buf.(o) <- float_of_int s.proc;
  buf.(o + 1) <- s.t0;
  buf.(o + 2) <- s.t1;
  buf.(o + 3) <- float_of_int s.job;
  buf.(o + 4) <- s.speed

let read_slice (buf : float array) n =
  let o = slice_words * n in
  {
    proc = int_of_float buf.(o);
    t0 = buf.(o + 1);
    t1 = buf.(o + 2);
    job = int_of_float buf.(o + 3);
    speed = buf.(o + 4);
  }

let[@inline always] proc_of (buf : float array) i =
  int_of_float buf.(slice_words * i)

let[@inline always] t0_of (buf : float array) i = buf.((slice_words * i) + 1)
let[@inline always] t1_of (buf : float array) i = buf.((slice_words * i) + 2)

let[@inline always] job_of (buf : float array) i =
  int_of_float buf.((slice_words * i) + 3)

let[@inline always] speed_of (buf : float array) i = buf.((slice_words * i) + 4)

let rev_records (buf : float array) n =
  let w = slice_words in
  for i = 0 to (n / 2) - 1 do
    let a = w * i and b = w * (n - 1 - i) in
    for k = 0 to w - 1 do
      let x = buf.(a + k) in
      buf.(a + k) <- buf.(b + k);
      buf.(b + k) <- x
    done
  done

(* ------------------------------------------------------------------ *)
(* Construction                                                         *)
(* ------------------------------------------------------------------ *)

(* Tolerance for work-completion and overlap checks: a schedule assembled
   from thousands of slices accumulates rounding in each one. *)
let work_tol = Feq.tol_loose

let check_machines machines =
  if machines < 1 then invalid_arg "Schedule.make: machines < 1"

(* Ids are stored as floats, which hold an int exactly only below 2^53. *)
let exact_id x = Float.abs x < 0x1p53

(* Slot [i]'s shape checks, with [make]'s messages.  The floats are read
   here, so the common path boxes none. *)
let[@inline] check_slot ~machines (buf : float array) i =
  let o = slice_words * i in
  let p = buf.(o) in
  if not (exact_id p) then
    invalid_arg (Fmt.str "Schedule.make: slice processor %.0f out of range" p);
  let proc = int_of_float p in
  if proc < 0 || proc >= machines then
    invalid_arg (Fmt.str "Schedule.make: slice processor %d out of range" proc);
  let t0 = buf.(o + 1) and t1 = buf.(o + 2) in
  if not (Float.is_finite t0 && Float.is_finite t1 && t0 < t1) then
    invalid_arg "Schedule.make: slice must have t0 < t1 (finite)";
  let speed = buf.(o + 4) in
  if not (Float.is_finite speed) || speed < 0.0 then
    invalid_arg "Schedule.make: slice speed must be finite >= 0";
  let j = buf.(o + 3) in
  if not (exact_id j) then
    invalid_arg (Fmt.str "Schedule.make: slice job id %.0f out of range" j)

let of_records ~machines ~rejected buf n =
  check_machines machines;
  let len = ref 0 in
  for i = 0 to n - 1 do
    check_slot ~machines buf i;
    if speed_of buf i > 0.0 && t1_of buf i > t0_of buf i then begin
      if !len < i then
        Array.blit buf (slice_words * i) buf (slice_words * !len) slice_words;
      incr len
    end
  done;
  {
    machines;
    rejected = List.sort_uniq Int.compare rejected;
    records = { buf; len = !len };
  }

let make ~machines ~rejected slices =
  let n = List.length slices in
  let buf = Array.create_float (slice_words * n) in
  List.iteri (write_slice buf) slices;
  of_records ~machines ~rejected buf n

(* ------------------------------------------------------------------ *)
(* Reading the store                                                    *)
(* ------------------------------------------------------------------ *)

let length t = t.records.len

let iter f t =
  let { buf; len } = t.records in
  for i = 0 to len - 1 do
    f (read_slice buf i)
  done

let fold f acc t =
  let { buf; len } = t.records in
  let acc = ref acc in
  for i = 0 to len - 1 do
    acc := f !acc (read_slice buf i)
  done;
  !acc

let slices t =
  let { buf; len } = t.records in
  let acc = ref [] in
  for i = len - 1 downto 0 do
    acc := read_slice buf i :: !acc
  done;
  !acc

let jobs t =
  let { buf; len } = t.records in
  Array.init len (job_of buf)

let energy power t =
  let { buf; len } = t.records in
  let acc = Ksum.create () in
  for i = 0 to len - 1 do
    Ksum.add acc
      (Power.energy power ~speed:(speed_of buf i)
         ~duration:(t1_of buf i -. t0_of buf i))
  done;
  Ksum.total acc

(* Work per job, one compensated accumulator per id in [0, n), added in
   slot order. *)
let work_by_job n t =
  let { buf; len } = t.records in
  let work = Array.init n (fun _ -> Ksum.create ()) in
  for i = 0 to len - 1 do
    let j = job_of buf i in
    if j >= 0 && j < n then
      Ksum.add work.(j) ((t1_of buf i -. t0_of buf i) *. speed_of buf i)
  done;
  work

let work_of_job t id =
  let { buf; len } = t.records in
  let acc = Ksum.create () in
  for i = 0 to len - 1 do
    Ksum.add acc
      (if job_of buf i = id then (t1_of buf i -. t0_of buf i) *. speed_of buf i
       else 0.0)
  done;
  Ksum.total acc

let finished_mask (inst : Instance.t) t =
  let work = work_by_job (Instance.n_jobs inst) t in
  Array.mapi
    (fun i w ->
      let j = Instance.job inst i in
      Ksum.total w >= j.workload -. (work_tol *. (1.0 +. j.workload)))
    work

let finished inst t =
  let fin = finished_mask inst t in
  List.filter (fun i -> fin.(i)) (List.init (Array.length fin) Fun.id)

let unfinished inst t =
  let fin = finished_mask inst t in
  List.filter (fun i -> not fin.(i)) (List.init (Array.length fin) Fun.id)

let cost (inst : Instance.t) t =
  let lost =
    Ksum.sum_by (fun i -> (Instance.job inst i).value) (unfinished inst t)
  in
  Cost.make ~energy:(energy inst.power t) ~lost_value:lost

(* ------------------------------------------------------------------ *)
(* Validation                                                           *)
(* ------------------------------------------------------------------ *)

let ( let* ) = Result.bind

(* Slot indices stably sorted by [key] then start: each key's slices in
   slot order, then by start, as filtering a list per key and sorting it
   stably by start would give. *)
let sorted_by key buf len =
  let idx = Array.init len Fun.id in
  Array.stable_sort
    (fun a b ->
      let c = Int.compare (key buf a) (key buf b) in
      if c <> 0 then c else Float.compare (t0_of buf a) (t0_of buf b))
    idx;
  idx

(* Overlap detection shared by per-processor and per-job checks: within a
   key's run of the sorted slots, each slice must start no earlier than
   the previous one ends. *)
let overlap_free label key buf idx =
  let rec go k =
    if k + 1 >= Array.length idx then Ok ()
    else
      let a = idx.(k) and b = idx.(k + 1) in
      if key buf a = key buf b && t0_of buf b < t1_of buf a -. work_tol then
        Error
          (Fmt.str "%s %d: slices overlap: [%g,%g) and [%g,%g)" label
             (key buf a) (t0_of buf a) (t1_of buf a) (t0_of buf b)
             (t1_of buf b))
      else go (k + 1)
  in
  go 0

let validate (inst : Instance.t) (t : t) =
  let* () =
    if t.machines = inst.machines then Ok ()
    else Error "schedule machine count differs from instance"
  in
  let n = Instance.n_jobs inst in
  let { buf; len } = t.records in
  let rec windows i =
    if i >= len then Ok ()
    else
      let id = job_of buf i and t0 = t0_of buf i and t1 = t1_of buf i in
      if id < 0 || id >= n then
        Error (Fmt.str "slice refers to unknown job %d" id)
      else
        let j = Instance.job inst id in
        if t0 >= j.release -. work_tol && t1 <= j.deadline +. work_tol then
          windows (i + 1)
        else
          Error
            (Fmt.str "job %d processed on [%g,%g) outside its window [%g,%g)"
               id t0 t1 j.release j.deadline)
  in
  let* () = windows 0 in
  let* () = overlap_free "processor" proc_of buf (sorted_by proc_of buf len) in
  let* () = overlap_free "job" job_of buf (sorted_by job_of buf len) in
  let ok = finished_mask inst t in
  List.iter (fun id -> if id >= 0 && id < n then ok.(id) <- true) t.rejected;
  let rec covered id =
    if id >= n then Ok ()
    else if ok.(id) then covered (id + 1)
    else
      Error
        (Fmt.str "job %d is neither rejected nor finished (work %g/%g)" id
           (work_of_job t id) (Instance.job inst id).workload)
  in
  covered 0

(* ------------------------------------------------------------------ *)
(* Per-processor and per-job views                                      *)
(* ------------------------------------------------------------------ *)

let speed_profile t ~proc =
  fold
    (fun acc s -> if s.proc = proc then (s.t0, s.t1, s.speed) :: acc else acc)
    [] t
  |> List.sort compare

let slice_at t ~proc time =
  let { buf; len } = t.records in
  let rec go i =
    if i >= len then None
    else if proc_of buf i = proc && t0_of buf i <= time && time < t1_of buf i
    then Some (read_slice buf i)
    else go (i + 1)
  in
  go 0

let speed_at t ~proc time =
  match slice_at t ~proc time with Some s -> s.speed | None -> 0.0

let running_at t ~proc time =
  Option.map (fun s -> s.job) (slice_at t ~proc time)

let busy_intervals t ~job =
  fold (fun acc s -> if s.job = job then (s.t0, s.t1) :: acc else acc) [] t
  |> List.sort compare

let pp ppf t =
  Format.fprintf ppf "schedule[m=%d rejected={%s}]@." t.machines
    (String.concat "," (List.map string_of_int t.rejected));
  List.iter
    (fun p ->
      Format.fprintf ppf "  proc %d:" p;
      List.iter
        (fun (t0, t1, s) -> Format.fprintf ppf " [%g,%g)@%.4g" t0 t1 s)
        (speed_profile t ~proc:p);
      Format.fprintf ppf "@.")
    (List.init t.machines Fun.id)
