open Speedscale_util
open Speedscale_model

type t = {
  machines : int;
  length : float;
  ids : int array;  (* sorted by decreasing load *)
  loads : float array;  (* sorted decreasing, all > 0 *)
  prefix : float array;  (* prefix.(i) = loads.(0) + ... + loads.(i-1) *)
  n_dedicated : int;
}

let machines t = t.machines
let interval_length t = t.length
let[@inline] total_load t = t.prefix.(Array.length t.loads)

(* The dedicated set is the maximal prefix (in decreasing load order) such
   that each member carries at least the per-processor average of what
   follows it (Eq. 5).  With at most m positive loads every job is
   dedicated; the greedy scan mirrors Chen et al.'s recursive peeling. *)
let dedicated_prefix ~machines ~loads ~prefix =
  let p = Array.length loads in
  let total = prefix.(p) in
  let rec go d =
    if d >= p || d >= machines then d
    else
      let rest = total -. prefix.(d + 1) in
      let procs_left = machines - (d + 1) in
      if procs_left = 0 then if rest <= 0.0 then d + 1 else d
      else if loads.(d) *. float_of_int procs_left >= rest then go (d + 1)
      else d
  in
  go 0

let build ~machines ~length pairs =
  if machines < 1 then invalid_arg "Chen.build: machines < 1";
  if not (Float.is_finite length) || length <= 0.0 then
    invalid_arg "Chen.build: interval length must be > 0";
  let pairs =
    List.filter
      (fun (_, w) ->
        if Float.is_nan w then invalid_arg "Chen.build: NaN load";
        w > 0.0)
      pairs
  in
  let ids_seen = Hashtbl.create 16 in
  List.iter
    (fun (id, _) ->
      if Hashtbl.mem ids_seen id then
        invalid_arg (Fmt.str "Chen.build: duplicate job id %d" id);
      Hashtbl.add ids_seen id ())
    pairs;
  let arr = Array.of_list pairs in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) arr;
  let p = Array.length arr in
  let ids = Array.map fst arr and loads = Array.map snd arr in
  let prefix = Array.make (p + 1) 0.0 in
  for i = 0 to p - 1 do
    prefix.(i + 1) <- prefix.(i) +. loads.(i)
  done;
  let n_dedicated = dedicated_prefix ~machines ~loads ~prefix in
  { machines; length; ids; loads; prefix; n_dedicated }

type partition = {
  dedicated : (int * float) list;
  pool : (int * float) list;
  pool_speed : float;
  pool_procs : int;
}

let pool_stats t =
  let p = Array.length t.loads in
  let d = t.n_dedicated in
  let pool_load = t.prefix.(p) -. t.prefix.(d) in
  let pool_procs = t.machines - d in
  let pool_speed =
    if pool_procs <= 0 then 0.0
    else pool_load /. (float_of_int pool_procs *. t.length)
  in
  (pool_load, pool_procs, pool_speed)

let partition t =
  let d = t.n_dedicated in
  let take lo hi =
    List.init (hi - lo) (fun i -> (t.ids.(lo + i), t.loads.(lo + i)))
  in
  let _, pool_procs, pool_speed = pool_stats t in
  {
    dedicated = take 0 d;
    pool = take d (Array.length t.loads);
    pool_speed;
    pool_procs;
  }

let energy power t =
  let d = t.n_dedicated in
  let acc = Ksum.create () in
  for i = 0 to d - 1 do
    Ksum.add acc
      (Power.energy power ~speed:(t.loads.(i) /. t.length) ~duration:t.length)
  done;
  let _, pool_procs, pool_speed = pool_stats t in
  if pool_procs > 0 && pool_speed > 0.0 then
    Ksum.add acc
      (float_of_int pool_procs
      *. Power.energy power ~speed:pool_speed ~duration:t.length);
  Ksum.total acc

let speed_of_job t id =
  let rec find i =
    if i >= Array.length t.ids then raise Not_found
    else if t.ids.(i) = id then i
    else find (i + 1)
  in
  let i = find 0 in
  if i < t.n_dedicated then t.loads.(i) /. t.length
  else
    let _, _, pool_speed = pool_stats t in
    pool_speed

let job_speeds t =
  let _, _, pool_speed = pool_stats t in
  List.init (Array.length t.ids) (fun i ->
      ( t.ids.(i),
        if i < t.n_dedicated then t.loads.(i) /. t.length else pool_speed ))

let processor_loads t =
  let d = t.n_dedicated in
  let _, _, pool_speed = pool_stats t in
  Array.init t.machines (fun i ->
      if i < d then t.loads.(i) else pool_speed *. t.length)

(* Number of stored loads strictly greater than [x] (loads sorted desc).
   A loop rather than a local recursive function: this runs on every
   probe, and the function would be a closure over [x]. *)
let[@inline] count_gt t x =
  let loads = t.loads in
  let lo = ref 0 and hi = ref (Array.length loads) in
  (* invariant: loads.(i) > x for i < lo; loads.(i) <= x for i >= hi *)
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if loads.(mid) > x then lo := mid + 1 else hi := mid
  done;
  !lo

(* Incrementally insert one (id, load) pair: O(p) blits, no sort and no
   duplicate scan — the committed-state update PD performs once per window
   interval per accepted job, where a full [build] would dominate the
   arrival cost.  The prefix sums are recomputed by summation over the new
   sorted order, so the result is value-identical to [build] on the
   extended pair list (up to the order of tied loads, which no query
   observes).  The caller guarantees [id] is not already present. *)
let add_load t (id, z) =
  if Float.is_nan z || z <= 0.0 then
    invalid_arg "Chen.add_load: load must be > 0";
  let p = Array.length t.loads in
  let pos = count_gt t z in
  let ids = Array.make (p + 1) id in
  Array.blit t.ids 0 ids 0 pos;
  Array.blit t.ids pos ids (pos + 1) (p - pos);
  let loads = Array.make (p + 1) z in
  Array.blit t.loads 0 loads 0 pos;
  Array.blit t.loads pos loads (pos + 1) (p - pos);
  let prefix = Array.make (p + 2) 0.0 in
  for i = 0 to p do
    prefix.(i + 1) <- prefix.(i) +. loads.(i)
  done;
  let n_dedicated = dedicated_prefix ~machines:t.machines ~loads ~prefix in
  { t with ids; loads; prefix; n_dedicated }

(* Scale every load by [factor] and set a new length: the interval-split
   update.  Sorted order is preserved (factor > 0) and the dedicated
   prefix is recomputed on the scaled values, so the result is
   value-identical to [build] on the scaled pairs. *)
let rescale t ~length ~factor =
  if not (Float.is_finite length) || length <= 0.0 then
    invalid_arg "Chen.rescale: length must be finite > 0";
  if not (Float.is_finite factor) || factor <= 0.0 then
    invalid_arg "Chen.rescale: factor must be finite > 0";
  let p = Array.length t.loads in
  let loads = Array.map (fun w -> w *. factor) t.loads in
  let prefix = Array.make (p + 1) 0.0 in
  for i = 0 to p - 1 do
    prefix.(i + 1) <- prefix.(i) +. loads.(i)
  done;
  let n_dedicated = dedicated_prefix ~machines:t.machines ~loads ~prefix in
  { t with length; loads; prefix; n_dedicated }

(* On every probe: the pool speed is computed in place rather than read
   off [pool_stats]'s tuple, and inlining keeps the result unboxed. *)
let[@inline] probe_speed_zero t =
  let d = t.n_dedicated in
  let pool_procs = t.machines - d in
  if pool_procs > 0 then
    (t.prefix.(Array.length t.loads) -. t.prefix.(d))
    /. (float_of_int pool_procs *. t.length)
  else
    (* all m processors dedicated; an infinitesimal probe would pool with
       the smallest dedicated job *)
    t.loads.(d - 1) /. t.length

let probe_speed t z =
  if z < 0.0 || Float.is_nan z then invalid_arg "Chen.probe_speed: bad load";
  if Float.equal z 0.0 then probe_speed_zero t
  else begin
    (* Recompute the partition with the probe merged in.  The probe gets a
       fresh id below any real one; only its speed is needed. *)
    let p = Array.length t.loads in
    let pos = count_gt t z in
    let loads = Array.make (p + 1) 0.0 in
    Array.blit t.loads 0 loads 0 pos;
    loads.(pos) <- z;
    Array.blit t.loads pos loads (pos + 1) (p - pos);
    let prefix = Array.make (p + 2) 0.0 in
    for i = 0 to p do
      prefix.(i + 1) <- prefix.(i) +. loads.(i)
    done;
    let d = dedicated_prefix ~machines:t.machines ~loads ~prefix in
    if pos < d then z /. t.length
    else
      let pool_load = prefix.(p + 1) -. prefix.(d) in
      let pool_procs = t.machines - d in
      pool_load /. (float_of_int pool_procs *. t.length)
  end

let probe_load_for_speed t s =
  if s < 0.0 || Float.is_nan s then
    invalid_arg "Chen.probe_load_for_speed: bad speed";
  if s <= 0.0 || s <= probe_speed_zero t then 0.0
  else
    let sl = s *. t.length in
    let d = count_gt t sl in
    if d >= t.machines then 0.0
    else
      let pool_others = total_load t -. t.prefix.(d) in
      let z_pool = (sl *. float_of_int (t.machines - d)) -. pool_others in
      let z = Float.min z_pool sl in
      Float.max z 0.0

(* Breakpoint speeds of the capped probe response g(s) = min(z(s), cap),
   where z(s) = probe_load_for_speed t s.  Within a regime where the
   probe's dedicated count d is fixed, z is one of 0, s*l*(m-d) - rest, or
   s*l — affine in s — so the kinks of g are contained in: the speeds
   where d changes (s*l crossing a stored load), the speeds where each
   affine piece enters (z = 0), hands over (z_pool = s*l), or saturates
   (z = cap), plus the marginal speed below which z is identically zero.
   We emit the full superset for every d; spurious entries inside an
   affine stretch are harmless — callers only rely on g being affine
   BETWEEN consecutive entries, never on every entry being a real kink. *)
let breakpoint_capacity t =
  let p = Array.length t.loads in
  2 + Int.min p t.machines + (3 * (Int.min p (t.machines - 1) + 1))

(* One candidate: stored at [buf.(n)] when finite and in [[lo, hi)].
   Inlined at every call site, so [s] is never boxed. *)
let[@inline always] keep (buf : float array) n ~lo ~hi s =
  if Float.is_finite s && s >= lo && s < hi then begin
    buf.(n) <- s;
    n + 1
  end
  else n

let write_breakpoints t ~cap ~below buf pos =
  if Float.is_nan cap || cap <= 0.0 then
    invalid_arg "Chen.write_breakpoints: cap must be > 0";
  let m = t.machines and l = t.length in
  let p = Array.length t.loads in
  let lo = probe_speed_zero t and hi = below in
  let dmax = Int.min p (m - 1) in
  let total = total_load t in
  let n = ref (keep buf pos ~lo ~hi lo) in
  (* d-transitions: only the first m matter (d >= m forces z = 0) *)
  for i = 0 to Int.min p m - 1 do
    n := keep buf !n ~lo ~hi (t.loads.(i) /. l)
  done;
  (* per fixed dedicated count d: entry (z_pool = 0), saturation
     (z_pool = cap) and handover (z_pool = s*l) speeds *)
  for d = 0 to dmax do
    let others = total -. t.prefix.(d) in
    let procs = float_of_int (m - d) in
    n := keep buf !n ~lo ~hi (others /. (procs *. l));
    n := keep buf !n ~lo ~hi ((cap +. others) /. (procs *. l));
    if m - d - 1 >= 1 then
      n := keep buf !n ~lo ~hi (others /. (float_of_int (m - d - 1) *. l))
  done;
  (* the z = s*l branch saturates *)
  keep buf !n ~lo ~hi (cap /. l)

let probe_breakpoints t ~cap =
  let buf = Array.make (breakpoint_capacity t) 0.0 in
  let n = write_breakpoints t ~cap ~below:Float.infinity buf 0 in
  Array.of_list
    (List.sort_uniq Float.compare (Array.to_list (Array.sub buf 0 n)))

(* Smallest [c] with [k <= 2^c]; [ceil_log2 (k + 1)] is the number of
   steps an exact-median search needs to empty [k] candidates. *)
let rec ceil_log2 k = if k <= 1 then 0 else 1 + ceil_log2 ((k + 1) / 2)

let[@inline] median3 (a : float) b c =
  if a < b then if b < c then b else if a < c then c else a
  else if a < c then a
  else if b < c then c
  else b

(* Selection instead of sorting: each step sweeps at one candidate, moves
   the bracket end on its side there, and keeps only the candidates
   strictly inside the bracket, so duplicates and the far side vanish
   with no comparison sort.  The pivot is the median of the first,
   middle and last survivors.  [steps + ceil_log2 (k + 1) <= budget]
   holds throughout: while it is slack a median-of-3 step (which removes
   at least the pivot) keeps it, and once it is tight the survivors are
   sorted — compaction keeps them sorted — so that every later pivot is
   the exact median, which leaves at most [k / 2] survivors and lowers
   [ceil_log2 (k + 1)] by one. *)
let bracket_crossing (buf : float array) n ~f ~target ~top ~f_top =
  let budget = 2 * ceil_log2 (n + 1) in
  let k = ref n and steps = ref 0 and sorted = ref false in
  let sa = ref Float.neg_infinity and fa = ref 0.0 in
  let sb = ref top and fb = ref f_top in
  while !k > 0 do
    if (not !sorted) && !steps + ceil_log2 (!k + 1) >= budget then begin
      let a = Array.sub buf 0 !k in
      Array.sort Float.compare a;
      Array.blit a 0 buf 0 !k;
      sorted := true
    end;
    let p =
      if !sorted then buf.(!k / 2)
      else median3 buf.(0) buf.(!k / 2) buf.(!k - 1)
    in
    let fp = f p in
    incr steps;
    if fp >= target then begin
      sb := p;
      fb := fp
    end
    else begin
      sa := p;
      fa := fp
    end;
    let lo = !sa and hi = !sb in
    let kept = ref 0 in
    for i = 0 to !k - 1 do
      let c = buf.(i) in
      if c > lo && c < hi then begin
        buf.(!kept) <- c;
        incr kept
      end
    done;
    k := !kept
  done;
  (!sa, !fa, !sb, !fb)

let marginal_power power t = Power.deriv power (probe_speed_zero t)

(* A partition realized on a window has [d] dedicated slices and at most
   two per pool job: McNaughton's rule wraps a job at most once. *)
let slice_capacity t =
  let p = Array.length t.loads and d = t.n_dedicated in
  d + (2 * (p - d))

(* One [Schedule] slice record at slot [n], laid out as
   [Schedule.write_slice] lays it out: proc, t0, t1, job, speed.  The
   writer is repeated here, not called, because a call into another
   module boxes its float arguments, and this runs for every slice a gc
   flush parks; inlined at every call site, it boxes none. *)
let[@inline always] put (buf : float array) n ~proc ~t0 ~t1 ~job ~speed =
  let o = Schedule.slice_words * n in
  buf.(o) <- float_of_int proc;
  buf.(o + 1) <- t0;
  buf.(o + 2) <- t1;
  buf.(o + 3) <- float_of_int job;
  buf.(o + 4) <- speed;
  n + 1

(* A pool piece [[lo, hi)] of the window starting at [t0]; slivers below
   the guard tolerance are dropped. *)
let[@inline always] put_pool buf n ~l ~t0 ~proc ~lo ~hi ~job ~speed =
  if hi -. lo > Feq.tol_guard *. (1.0 +. l) then
    put buf n ~proc ~t0:(t0 +. lo) ~t1:(t0 +. hi) ~job ~speed
  else n

let write_slices t ~t0 ~t1 buf pos =
  if not (Feq.approx (t1 -. t0) t.length) then
    invalid_arg
      (Fmt.str "Chen.write_slices: window [%g,%g) has length %g, expected %g"
         t0 t1 (t1 -. t0) t.length);
  let d = t.n_dedicated in
  let n = ref pos in
  for i = d - 1 downto 0 do
    n :=
      put buf !n ~proc:i ~t0 ~t1 ~job:t.ids.(i)
        ~speed:(t.loads.(i) /. t.length)
  done;
  (* with a pool processor left, the marginal speed is the pool speed *)
  let pool_speed = if d < t.machines then probe_speed_zero t else 0.0 in
  if pool_speed > 0.0 then begin
    (* McNaughton wrap-around on processors d .. m-1: valid because every
       pool load is at most pool_speed * length. *)
    let l = t.length in
    let proc = ref d and offset = ref 0.0 in
    for i = d to Array.length t.loads - 1 do
      let job = t.ids.(i) in
      let dur = t.loads.(i) /. pool_speed in
      let cap = l -. !offset in
      let last_proc = !proc >= t.machines - 1 in
      if dur <= cap +. (Feq.tol_snap *. l) || last_proc then begin
        (* fits (or this is the final processor: accumulated rounding can
           claim an overflow of order 1e-9*l — squeeze it in, the work
           tolerance absorbs it) *)
        let dur = Float.min dur cap in
        n :=
          put_pool buf !n ~l ~t0 ~proc:!proc ~lo:!offset ~hi:(!offset +. dur)
            ~job ~speed:pool_speed;
        offset := !offset +. dur;
        if l -. !offset <= Feq.tol_snap *. l && not last_proc then begin
          incr proc;
          offset := 0.0
        end
      end
      else begin
        n :=
          put_pool buf !n ~l ~t0 ~proc:!proc ~lo:!offset ~hi:l ~job
            ~speed:pool_speed;
        let rest = dur -. cap in
        incr proc;
        (* the wrapped piece ends before the first piece started, so the
           job never runs on two processors at once *)
        n :=
          put_pool buf !n ~l ~t0 ~proc:!proc ~lo:0.0 ~hi:rest ~job
            ~speed:pool_speed;
        offset := rest
      end
    done
  end;
  !n

(* The records come out in the reverse of the list's order, so consing
   them front to back builds it. *)
let slices t ~t0 ~t1 =
  let buf = Array.make (Schedule.slice_words * slice_capacity t) 0.0 in
  let n = write_slices t ~t0 ~t1 buf 0 in
  let acc = ref [] in
  for i = 0 to n - 1 do
    acc := Schedule.read_slice buf i :: !acc
  done;
  !acc
