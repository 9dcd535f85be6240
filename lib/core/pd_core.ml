open Speedscale_util
open Speedscale_model
open Speedscale_chen
open Speedscale_solver

(* Two boundaries closer than this (absolute + relative, Feq-style) denote
   the same instant: deadlines and releases that differ by less than the
   tolerance must share a boundary, or the proportional split of committed
   loads divides by a near-zero interval length and amplifies rounding
   noise into the schedule.  See DESIGN.md section 5. *)
let boundary_tol = Feq.tol_snap
let same_boundary a b = Feq.approx ~atol:boundary_tol ~rtol:boundary_tol a b

(* "Wholly in the past", robustly: a boundary [hi] may be forgotten only
   when it trails [last_release] by a 4x boundary-tolerance margin (plus
   the 1e-12 arrival-order slack).  A future release can undershoot
   [last_release] by at most 1e-12, and a future boundary within the snap
   tolerance of a retained boundary must still find it — the margin makes
   it impossible for any future boundary to land at, below, or within
   snapping distance of a flushed boundary, so flushing can never change
   a decision.  See DESIGN.md section 5. *)
let safely_past ~last_release hi =
  let scale = 1.0 +. Float.max (Float.abs hi) (Float.abs last_release) in
  last_release -. hi > (4.0 *. boundary_tol *. scale) +. Feq.tol_guard

type stats = {
  arrivals : int;
  probes : int;
  intervals : int;
  breakpoints : int;
  bisections : int;
}

type mem_stats = {
  live_intervals : int;
  max_live_intervals : int;
  table_entries : int;
  max_table_entries : int;
  flushed_intervals : int;
  evicted_jobs : int;
  finished_slices : int;
}

type decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
}

(* Binary min-heap of (deadline, job id): the eviction order for the
   dup-id table under GC.  Only ever holds live-window jobs. *)
module Expiry = struct
  type t = { mutable a : (float * int) array; mutable n : int }

  let create () = { a = [||]; n = 0 }
  let key h i = fst h.a.(i)

  let swap h i j =
    let x = h.a.(i) in
    h.a.(i) <- h.a.(j);
    h.a.(j) <- x

  let push h d id =
    if h.n = Array.length h.a then begin
      let cap = Stdlib.max 8 (2 * Array.length h.a) in
      let a = Array.make cap (0.0, 0) in
      Array.blit h.a 0 a 0 h.n;
      h.a <- a
    end;
    h.a.(h.n) <- (d, id);
    h.n <- h.n + 1;
    let i = ref (h.n - 1) in
    while !i > 0 && key h ((!i - 1) / 2) > key h !i do
      swap h ((!i - 1) / 2) !i;
      i := (!i - 1) / 2
    done

  let peek h = if h.n = 0 then None else Some h.a.(0)

  let pop h =
    h.n <- h.n - 1;
    swap h 0 h.n;
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let m = ref !i in
      if l < h.n && key h l < key h !m then m := l;
      if r < h.n && key h r < key h !m then m := r;
      if !m <> !i then begin
        swap h !i !m;
        i := !m
      end
      else continue := false
    done
end

(* Flushed slices parked as flat float arrays of [Schedule]'s slice records.
   A soak-length stream retains millions of slices; kept as a list of
   boxed records they dominate the major collector's marking work and
   per-arrival wall time degrades with the length of the history — a
   float array's contents are never scanned, so the accumulator is
   GC-inert no matter how large it grows. *)
module Slab = struct
  (* Fixed-size chunks, newest first, rather than a growable array: a
     doubling realloc would copy the whole history (a multi-hundred-MB
     pause at soak sizes) and leave the old array as major-heap garbage. *)
  let chunk_slices = 1 lsl 16

  type t = {
    mutable chunks_rev : float array list;
    mutable n : int;
    (* one interval's slices on their way in, grown on first use *)
    mutable stage : float array;
  }

  let create () = { chunks_rev = []; n = 0; stage = [||] }
  let length s = s.n

  (* Claim the next record: its slot in the newest chunk. *)
  let slot s =
    let i = s.n mod chunk_slices in
    if i = 0 then
      s.chunks_rev <-
        Array.make (Schedule.slice_words * chunk_slices) 0.0 :: s.chunks_rev;
    s.n <- s.n + 1;
    i

  let push s sl =
    let i = slot s in
    Schedule.write_slice (List.hd s.chunks_rev) i sl

  let push_slices s c ~t0 ~t1 =
    let w = Schedule.slice_words in
    let need = w * Chen.slice_capacity c in
    if Array.length s.stage < need then
      s.stage <- Array.make (Stdlib.max need (2 * Array.length s.stage)) 0.0;
    let stage = s.stage in
    for k = 0 to Chen.write_slices c ~t0 ~t1 stage 0 - 1 do
      let i = slot s in
      Array.blit stage (w * k) (List.hd s.chunks_rev) (w * i) w
    done

  (* One buffer: the slab's records in push order, one blit per chunk,
     then up to [room] more from [write buf pos] (which returns the next
     free slot).  Reversed in place, it becomes the schedule. *)
  let schedule s ~machines ~rejected ~room write =
    let w = Schedule.slice_words in
    let buf = Array.create_float (w * (s.n + room)) in
    List.iteri
      (fun c a ->
        let first = c * chunk_slices in
        Array.blit a 0 buf (w * first)
          (w * Stdlib.min chunk_slices (s.n - first)))
      (List.rev s.chunks_rev);
    let n = write buf s.n in
    Schedule.rev_records buf n;
    Schedule.of_records ~machines ~rejected buf n
end

(* ------------------------------------------------------------------ *)
(* The objective and the relaxation contract                            *)
(* ------------------------------------------------------------------ *)

(* The paper's objective: energy plus the value of unfinished jobs.  The
   marginal price of running job [j] at speed [s] is
   [mu = delta * w_j * P'(s)]; a job is worth accepting while the price
   stays below its value [v_j]. *)
module Energy_value = struct
  type t = { power : Power.t; machines : int; delta : float }

  let make ?delta ~err ~power ~machines () =
    if machines < 1 then invalid_arg (err ^ ": machines < 1");
    let delta = Option.value delta ~default:(Power.delta_star power) in
    if not (Float.is_finite delta) || delta <= 0.0 then
      invalid_arg (err ^ ": delta must be finite > 0");
    { power; machines; delta }

  let power t = t.power
  let machines t = t.machines
  let delta t = t.delta

  (* The speed corresponding to price level mu for a job of workload w:
     mu = delta * w * P'(s). *)
  let speed_of_price t ~workload mu =
    Power.inv_deriv t.power (mu /. (t.delta *. workload))

  let price_of_speed t ~workload s =
    t.delta *. workload *. Power.deriv t.power s
end

type verdict =
  | Reject of float  (** the job cannot finish below this price *)
  | Accept of float * (int * float) list
      (** final common price and the committed public assignment *)

module type RELAXATION = sig
  type t

  val create : Energy_value.t -> err:string -> gc:bool -> t

  val prepare : t -> Job.t -> last_release:float -> unit
  (** Timeline refinement (and, under gc, flushing of the wholly-past
      prefix) before pricing the arrival. *)

  val price : t -> Job.t -> reference:bool -> verdict
  (** Price the arrival against the committed state and, on acceptance,
      commit its assignment.  [reference] selects the relaxation's slow
      oracle solver where it has one.  May raise [Failure] when a
      must-finish job cannot be placed. *)

  val schedule : t -> rejected:int list -> Schedule.t

  val stats : t -> stats
  (** Cumulative work of every [price] call so far, one that raised
      included; [arrivals] is the loop's to fill. *)

  val mem : t -> mem_stats
  (** Residency gauges; the dup-id table's three are the loop's to
      fill. *)
end

(* ------------------------------------------------------------------ *)
(* The certificate                                                      *)
(* ------------------------------------------------------------------ *)

(* The paper's dual bound g(lambda) (weak duality, Theorem 2), read off a
   run's decisions: each carries its job and the multiplier fixed at
   arrival, which is all g needs, so the bound is the same whether the
   engine ran with gc or not.  It is a valid lower bound for any
   instantiation whose feasible set is contained in the
   preemptive-migratory relaxation — in particular for the non-preemptive
   engine, whose schedules are a subset of the preemptive ones. *)
let certificate ~power ~machines (decisions : decision list) =
  match decisions with
  | [] -> 0.0
  | _ ->
    (* Instance.make re-ranks ids by (release, id); mirror that order to
       line the multipliers up with the re-ranked jobs. *)
    let sorted =
      List.stable_sort
        (fun (a : decision) (b : decision) -> Job.compare_release a.job b.job)
        decisions
    in
    let jobs = List.map (fun (d : decision) -> d.job) sorted in
    let lambda =
      Array.of_list (List.map (fun (d : decision) -> d.lambda) sorted)
    in
    let inst = Instance.make ~power ~machines jobs in
    (Dual.evaluate inst (Timeline.of_jobs jobs) ~lambda).value

(* ------------------------------------------------------------------ *)
(* The generic accept/reject + lambda-pricing loop                      *)
(* ------------------------------------------------------------------ *)

module Make (R : RELAXATION) = struct
  type t = {
    obj : Energy_value.t;
    relax : R.t;
    err : string;
    gc : bool;
    expiry : Expiry.t;
    seen_ids : (int, unit) Hashtbl.t;
    mutable rejected_rev : int list;
    mutable last_release : float;
    mutable evicted_jobs : int;
    mutable arrivals : int;
    mutable max_table : int;
  }

  let create ?(gc = false) ~err obj =
    {
      obj;
      relax = R.create obj ~err ~gc;
      err;
      gc;
      expiry = Expiry.create ();
      seen_ids = Hashtbl.create 64;
      rejected_rev = [];
      last_release = Float.neg_infinity;
      evicted_jobs = 0;
      arrivals = 0;
      max_table = 0;
    }

  let obj t = t.obj
  let relax t = t.relax
  let stats t = { (R.stats t.relax) with arrivals = t.arrivals }

  let mem t =
    {
      (R.mem t.relax) with
      table_entries = Hashtbl.length t.seen_ids;
      max_table_entries = t.max_table;
      evicted_jobs = t.evicted_jobs;
    }

  let evict_tables t =
    if t.gc then begin
      let evicting = ref true in
      while !evicting do
        match Expiry.peek t.expiry with
        | Some (d, id) when safely_past ~last_release:t.last_release d ->
          Expiry.pop t.expiry;
          Hashtbl.remove t.seen_ids id;
          t.evicted_jobs <- t.evicted_jobs + 1
        | _ -> evicting := false
      done
    end

  let arrive_with ~reference t (job : Job.t) =
    if Hashtbl.mem t.seen_ids job.id then
      invalid_arg (t.err ^ ".arrive: duplicate job id");
    if job.release < t.last_release -. Feq.tol_guard then
      invalid_arg (t.err ^ ".arrive: jobs must arrive in release order");
    t.last_release <- Float.max t.last_release job.release;
    t.arrivals <- t.arrivals + 1;
    Hashtbl.add t.seen_ids job.id ();
    if t.gc then Expiry.push t.expiry job.deadline job.id;
    evict_tables t;
    t.max_table <- Stdlib.max t.max_table (Hashtbl.length t.seen_ids);
    R.prepare t.relax job ~last_release:t.last_release;
    let verdict = R.price t.relax job ~reference in
    let w = job.workload in
    match verdict with
    | Reject lambda ->
      let planned_speed = Energy_value.speed_of_price t.obj ~workload:w lambda in
      t.rejected_rev <- job.id :: t.rejected_rev;
      { job; accepted = false; lambda; planned_speed; assignment = [] }
    | Accept (lambda, assignment) ->
      let planned_speed = Energy_value.speed_of_price t.obj ~workload:w lambda in
      { job; accepted = true; lambda; planned_speed; assignment }

  let arrive t job = arrive_with ~reference:false t job
  let arrive_reference t job = arrive_with ~reference:true t job
  let schedule t = R.schedule t.relax ~rejected:(List.rev t.rejected_rev)
end

(* ------------------------------------------------------------------ *)
(* The default relaxation: atomic intervals + Chen water-filling        *)
(* ------------------------------------------------------------------ *)

(* The payload of one atomic interval [bnd.(i), bnd.(i+1)) of the live
   timeline: its committed loads and their lazily built Chen problem.
   Mutable, so splits and load commits touch the record in place. *)
type ivl = {
  mutable loads : (int * float) list;
  mutable cache : Chen.t option;
}

(* Filler for the payload slots outside the live window, never mutated. *)
let vacant = { loads = []; cache = None }

module Interval = struct
  type t = {
    obj : Energy_value.t;
    err : string;
    gc : bool;
    machines : int;
    (* Timeline: the [len] live boundaries, strictly increasing, are
       [bnd.(first) .. bnd.(first + len - 1)], and [ivs.(i)] is the
       payload of interval [bnd.(i), bnd.(i+1)), so [len - 1] intervals
       are live (none for one boundary or none).  Intervals are
       contiguous by construction.  Jobs arrive in release order, so a
       new boundary lands at or after the newest release and an insert
       shifts only the boundaries still ahead of it; gc drops a prefix by
       advancing [first]. *)
    mutable bnd : float array;
    mutable ivs : ivl array;
    mutable first : int;
    mutable len : int;
    (* GC state: slices of flushed (wholly-past) intervals.  Each flush
       pushes its slices in reverse, so reading the slab back to front
       yields newest flush first with batch-internal order restored —
       [schedule] appends that after the live slices, reproducing the
       slice order of a never-flushed timeline. *)
    finished : Slab.t;
    mutable flushed_intervals : int;
    mutable max_live : int;
    (* Breakpoint scratch for [solve_speed], grown on first use so that
       [create] allocates nothing for it. *)
    mutable scratch : float array;
    (* cumulative work counters ([stats]) *)
    mutable probes : int;
    mutable window_intervals : int;
    mutable breakpoints : int;
    mutable bisections : int;
  }

  let create obj ~err ~gc =
    {
      obj;
      err;
      gc;
      machines = Energy_value.machines obj;
      bnd = [||];
      ivs = [||];
      first = 0;
      len = 0;
      finished = Slab.create ();
      flushed_intervals = 0;
      max_live = 0;
      scratch = [||];
      probes = 0;
      window_intervals = 0;
      breakpoints = 0;
      bisections = 0;
    }

  (* Live intervals: one fewer than the boundaries, none for fewer than
     two. *)
  let intervals t = Int.max 0 (t.len - 1)

  (* The index of the last live interval whose start is <= [x], or
     [first - 1] when there is none: a binary search of the starts. *)
  let find_last_leq t x =
    let lo = ref t.first and hi = ref (t.first + intervals t) in
    while !lo < !hi do
      let mid = (!lo + !hi) / 2 in
      if t.bnd.(mid) <= x then lo := mid + 1 else hi := mid
    done;
    !lo - 1

  (* Room for one more boundary past the window: copy the window to the
     front of fresh arrays, of the same size when it fills at most half
     of them (gc has dropped the rest), else of twice the size. *)
  let make_room t =
    let cap = Array.length t.bnd in
    let cap =
      if cap > 0 && 2 * t.len <= cap then cap else Int.max 16 (2 * cap)
    in
    let bnd = Array.make cap 0.0 and ivs = Array.make cap vacant in
    Array.blit t.bnd t.first bnd 0 t.len;
    Array.blit t.ivs t.first ivs 0 t.len;
    t.bnd <- bnd;
    t.ivs <- ivs;
    t.first <- 0

  (* Insert boundary [b] at window position [i] (0 .. len), shifting the
     suffix.  A new interval comes with it unless [b] is the only
     boundary; [iv] becomes its payload: the interval starting at [b], or
     the new last one when [b] is appended. *)
  let insert t i b iv =
    if t.first + t.len = Array.length t.bnd then make_room t;
    let p = t.first + i and e = t.first + t.len in
    Array.blit t.bnd p t.bnd (p + 1) (e - p);
    t.bnd.(p) <- b;
    if t.len > 0 then begin
      let q = Int.min p (e - 1) in
      Array.blit t.ivs q t.ivs (q + 1) (e - 1 - q);
      t.ivs.(q) <- iv
    end;
    t.len <- t.len + 1

  (* Insert [b] as a boundary unless an existing boundary lies within the
     dedup tolerance (then [b] snaps to it).  Inside an interval: split it,
     dividing the committed loads proportionally to the sub-lengths (this
     keeps every job's speed unchanged, which is why the reformulated
     online algorithm computes the same schedule as one knowing the
     partition a priori).  Outside the current horizon: add an empty edge
     interval.  The tolerance guarantees both sub-lengths of a split
     exceed boundary_tol * scale, so the proportional split never divides
     by a near-zero length. *)
  let insert_boundary t b =
    let j = find_last_leq t b in
    if j < t.first then begin
      if t.len = 0 then insert t 0 b vacant
      else
        let g = t.bnd.(t.first) in
        if not (same_boundary g b) then
          insert t (if b < g then 0 else 1) b { loads = []; cache = None }
    end
    else begin
      let lo = t.bnd.(j) and hi = t.bnd.(j + 1) in
      if not (same_boundary lo b) then
        if b < hi then begin
          if not (same_boundary hi b) then begin
            (* split [lo, hi) at b *)
            let iv = t.ivs.(j) in
            let frac_left = (b -. lo) /. (hi -. lo) in
            let half len factor =
              match iv.cache with
              | None -> None
              | Some c -> Some (Chen.rescale c ~length:len ~factor)
            in
            let right =
              {
                loads =
                  List.map
                    (fun (id, w) -> (id, w *. (1.0 -. frac_left)))
                    iv.loads;
                cache = half (hi -. b) (1.0 -. frac_left);
              }
            in
            iv.loads <- List.map (fun (id, w) -> (id, w *. frac_left)) iv.loads;
            iv.cache <- half (b -. lo) frac_left;
            insert t (j + 1 - t.first) b right
          end
        end
        else if not (same_boundary hi b) then
          (* [hi] is the horizon: append an empty edge interval [hi, b) *)
          insert t t.len b { loads = []; cache = None }
    end

  (* The index of the boundary representing [x]: exact, or the neighbour
     [x] snapped to during [insert_boundary]. *)
  let boundary_index t x =
    let j = find_last_leq t x in
    if j >= t.first && same_boundary t.bnd.(j) x then j
    else if j + 1 < t.first + t.len && same_boundary t.bnd.(j + 1) x then
      j + 1
    else invalid_arg (Fmt.str "%s.boundary_index: %g is not a boundary" t.err x)

  (* The committed-load Chen problem of interval [i], built lazily and
     invalidated whenever the interval is split or receives new load. *)
  let chen t i =
    let iv = t.ivs.(i) in
    match iv.cache with
    | Some c -> c
    | None ->
      let c =
        Chen.build ~machines:t.machines
          ~length:(t.bnd.(i + 1) -. t.bnd.(i))
          iv.loads
      in
      iv.cache <- Some c;
      c

  let flush_slices t i =
    match t.ivs.(i).loads with
    | [] -> ()
    | _ ->
      Slab.push_slices t.finished (chen t i) ~t0:t.bnd.(i) ~t1:t.bnd.(i + 1)

  (* Drop the intervals that end safely past the newest release, oldest
     first, into the slab; once the timeline has drained, its last
     boundary goes too when it is safely past. *)
  let gc_flush t ~last_release =
    while t.len >= 2 && safely_past ~last_release t.bnd.(t.first + 1) do
      flush_slices t t.first;
      (* let the flushed payload go now, not at the next [make_room] *)
      t.ivs.(t.first) <- vacant;
      t.first <- t.first + 1;
      t.len <- t.len - 1;
      t.flushed_intervals <- t.flushed_intervals + 1
    done;
    if t.len = 1 && safely_past ~last_release t.bnd.(t.first) then t.len <- 0

  let prepare t (job : Job.t) ~last_release =
    if t.gc then gc_flush t ~last_release;
    insert_boundary t job.release;
    insert_boundary t job.deadline;
    t.max_live <- Int.max t.max_live (intervals t)

  (* Work (in load units) the job would commit across [probs] at speed
     [s].  Summation order is interval order; the loop is [Ksum.add]'s
     Neumaier steps written out in the same order, so the sum is
     float-for-float [Ksum]'s.  This runs on every probe, and a call to
     [Ksum.add] across modules would box its float argument each time;
     the two must change together (lib/util/ksum.ml says so too). *)
  let assigned_at_speed t ~w probs s =
    let n = Array.length probs in
    t.probes <- t.probes + n;
    let sum = ref 0.0 and comp = ref 0.0 in
    for i = 0 to n - 1 do
      let _, _, p = probs.(i) in
      let x = Float.min (Chen.probe_load_for_speed p s) w in
      let acc = !sum in
      let s' = acc +. x in
      if Float.abs acc >= Float.abs x then comp := !comp +. (acc -. s' +. x)
      else comp := !comp +. (x -. s' +. acc);
      sum := s'
    done;
    !sum +. !comp

  (* Commit the accepted assignment at the final price: rescale so the job
     is finished exactly despite solver dust, then pour the loads into the
     interval records.  A near-zero total cannot be rescued by rescaling —
     fail loudly instead of recording an acceptance backed by a garbage
     schedule.  The total goes through [Ksum] itself, not the inline copy
     in [assigned_at_speed]: this runs once per acceptance, not once per
     probe, so the boxed argument is not worth a second copy. *)
  let commit_loads t (job : Job.t) probs lambda =
    let w = job.workload in
    let s = Energy_value.speed_of_price t.obj ~workload:w lambda in
    let n = Array.length probs in
    t.probes <- t.probes + n;
    let zs = Array.make n 0.0 in
    let acc = Ksum.create () in
    for i = 0 to n - 1 do
      let _, _, p = probs.(i) in
      let z = Float.min (Chen.probe_load_for_speed p s) w in
      if z > 0.0 then begin
        zs.(i) <- z;
        Ksum.add acc z
      end
    done;
    let total = Ksum.total acc in
    if not (total > Feq.tol_snap *. w) then
      failwith
        (Fmt.str
           "%s.arrive: job %d accepted but only %g of workload %g was \
            assigned"
           t.err job.id total w);
    let scale = w /. total in
    (* back to front, so the public assignment comes out in interval
       order without a reversal *)
    let assignment = ref [] in
    for i = n - 1 downto 0 do
      if zs.(i) > 0.0 then begin
        let k, iv, _ = probs.(i) in
        let z = zs.(i) *. scale in
        iv.loads <- (job.id, z) :: iv.loads;
        iv.cache <-
          (match iv.cache with
          | Some c -> Some (Chen.add_load c (job.id, z))
          | None -> None);
        assignment := (k, z) :: !assignment
      end
    done;
    !assignment

  (* ---------------------------------------------------------------- *)
  (* Optimized price solve: breakpoint walk                             *)
  (* ---------------------------------------------------------------- *)

  (* The scratch buffer with room for [need] entries. *)
  let scratch t need =
    if Array.length t.scratch < need then
      t.scratch <- Array.make (Int.max need (2 * Array.length t.scratch)) 0.0;
    t.scratch

  (* Find the speed s_star with assigned s_star = w by bracketing it
     between adjacent breakpoints, then interpolating inside the
     bracketing segment (assignment is affine there, so the interpolation
     is exact up to rounding; a bracketed bisection inside the segment is
     kept as a fallback).

     The candidates are every window interval's [Chen.write_breakpoints]
     output in one scratch buffer, unsorted and with repeats: the total
     assigned work is affine between adjacent distinct entries and zero at
     the smallest.  [Chen.bracket_crossing] selects the crossing segment
     from them directly, and its sweeps already give f at both ends.

     [bound_s]: [Some s_v] caps the search at the job's value speed —
     breakpoints at or above it are dropped and s_v tops the list, and
     [None] is returned when the assignment never reaches [w] below it,
     which the caller interprets as "the job finishes exactly as the price
     reaches its value".  With [bound_s = None] a sentinel past the global
     saturation breakpoint guarantees the crossing exists. *)
  let solve_speed t ~w probs ~bound_s =
    let below = match bound_s with Some sv -> sv | None -> Float.infinity in
    let need = ref 0 in
    for i = 0 to Array.length probs - 1 do
      let _, _, p = probs.(i) in
      need := !need + Chen.breakpoint_capacity p
    done;
    let bps = scratch t !need in
    let raw = ref 0 in
    for i = 0 to Array.length probs - 1 do
      let _, _, p = probs.(i) in
      raw := Chen.write_breakpoints p ~cap:w ~below bps !raw
    done;
    let raw = !raw in
    let top =
      match bound_s with
      | Some sv -> sv
      | None ->
        let hi = ref Float.neg_infinity in
        for i = 0 to raw - 1 do
          if bps.(i) > !hi then hi := bps.(i)
        done;
        !hi *. (1.0 +. Feq.tol_loose)
    in
    t.breakpoints <- t.breakpoints + raw + 1;
    let f s = assigned_at_speed t ~w probs s in
    (* Cancellation in the probe's closed form can make f at the exact
       saturation breakpoint evaluate a few ulp short of w; a strict >= w
       search would then skip past it onto the plateau, where interpolation
       is meaningless.  Searching against w minus a whisker keeps the
       bracketing segment at (or before) the true crossing. *)
    let w_eff = w -. (Feq.tol_guard *. (1.0 +. w)) in
    let f_top = f top in
    if f_top < w_eff then None
    else begin
      let sa, fa, sb, fb =
        Chen.bracket_crossing bps raw ~f ~target:w_eff ~top ~f_top
      in
      (* no candidate below the crossing: the segment starts at speed 0,
         where nothing is assigned *)
      let sa = if Float.is_finite sa then sa else 0.0 in
      if fb < w || fb -. fa <= 0.0 then
        (* the segment tops out within tolerance of w: its right endpoint
           is the crossing (either the saturation breakpoint under FP
           jitter, or the value-speed cap of a job finishing exactly as
           the price reaches its value) *)
        Some sb
      else begin
        let s =
          Feq.clamp ~lo:sa ~hi:sb
            (sa +. ((w -. fa) *. (sb -. sa) /. (fb -. fa)))
        in
        if Float.abs (f s -. w) <= Feq.tol_snap *. (1.0 +. w) then Some s
        else begin
          t.bisections <- t.bisections + 1;
          Some (Bisect.monotone_inverse ~f ~target:w ~lo:sa ~hi:sb ())
        end
      end
    end

  (* ---------------------------------------------------------------- *)
  (* Pricing                                                            *)
  (* ---------------------------------------------------------------- *)

  (* The job's window as (position in the live timeline, payload, Chen
     problem), oldest interval first. *)
  let window t (job : Job.t) =
    let lo = boundary_index t job.release
    and hi = boundary_index t job.deadline in
    Array.init
      (Int.max 0 (hi - lo))
      (fun k -> (lo - t.first + k, t.ivs.(lo + k), chen t (lo + k)))

  (* A job whose window collapsed onto existing boundaries (span below the
     dedup tolerance) can place no work at all. *)
  let degenerate_window t (job : Job.t) =
    if Float.is_finite job.value then Reject job.value
    else
      failwith
        (Fmt.str
           "%s.arrive: job %d must finish but its window [%g, %g) is \
            degenerate (below the boundary tolerance)"
           t.err job.id job.release job.deadline)

  let price_fast t (job : Job.t) probs =
    let w = job.workload in
    let finite = Float.is_finite job.value in
    let s_v =
      if finite then Energy_value.speed_of_price t.obj ~workload:w job.value
      else 0.0
    in
    let at_value = if finite then assigned_at_speed t ~w probs s_v else 0.0 in
    if finite && at_value < w *. (1.0 -. Feq.tol_snap) then Reject job.value
    else begin
      let bound_s = if finite then Some s_v else None in
      let lambda =
        match solve_speed t ~w probs ~bound_s with
        | Some s -> Energy_value.price_of_speed t.obj ~workload:w s
        | None ->
          (* the assignment never reaches w strictly below the value
             speed: the job finishes exactly as the price hits v_j *)
          if finite then job.value
          else
            failwith
              (Fmt.str
                 "%s.arrive: job %d: unbounded price search failed to \
                  place the workload"
                 t.err job.id)
      in
      Accept (lambda, commit_loads t job probs lambda)
    end

  (* The pre-optimization solver, kept verbatim in structure: one outer
     bisection on the price with a full window sweep per probe.  Shares
     the timeline, probe and bookkeeping code with the fast path, so any
     divergence between the two isolates the breakpoint walk. *)
  let price_reference t (job : Job.t) probs =
    let w = job.workload in
    let assigned mu =
      assigned_at_speed t ~w probs
        (Energy_value.speed_of_price t.obj ~workload:w mu)
    in
    let at_value =
      if Float.is_finite job.value then assigned job.value else 0.0
    in
    if Float.is_finite job.value && at_value < w *. (1.0 -. Feq.tol_snap) then
      Reject job.value
    else begin
      let hi =
        if Float.is_finite job.value then job.value
        else begin
          (* grow a bracket: the price at which even a single interval
             could absorb the whole job is a safe upper bound *)
          let init =
            Energy_value.delta t.obj *. w
            *. Power.deriv (Energy_value.power t.obj)
                 ((w +. 1.0) /. Float.max Feq.tol_snap (Job.span job))
          in
          Bisect.grow_bracket ~f:assigned ~target:w ~lo:0.0
            ~init:(Float.max init Feq.tol_snap) ()
        end
      in
      let mu_star =
        (* [monotone_inverse] raises when f hi < target; a finite-value
           job with at_value in [w(1-1e-9), w) legitimately saturates at
           the value price — that clamp is a modelling decision made
           here, not inside Bisect (DESIGN.md section 5) *)
        if assigned hi < w then hi
        else Bisect.monotone_inverse ~f:assigned ~target:w ~lo:0.0 ~hi ()
      in
      Accept (mu_star, commit_loads t job probs mu_star)
    end

  let price t (job : Job.t) ~reference =
    let probs = window t job in
    t.window_intervals <- t.window_intervals + Array.length probs;
    if Array.length probs = 0 then degenerate_window t job
    else if reference then price_reference t job probs
    else price_fast t job probs

  (* ---------------------------------------------------------------- *)
  (* Results and state surfaces                                         *)
  (* ---------------------------------------------------------------- *)

  let boundaries t = Array.sub t.bnd t.first t.len

  let interval_loads t =
    Array.init (intervals t) (fun i -> t.ivs.(t.first + i).loads)

  (* The reverse of: the flushed slices in push order, then each live
     interval's in Chen's write order, oldest interval first.  Each flush
     wrote its batch in that write order too, so the schedule lists the
     newest flush first with batch-internal order intact — the order a
     never-flushed state gives. *)
  let schedule t ~rejected =
    let live f acc =
      let acc = ref acc in
      for i = t.first to t.first + intervals t - 1 do
        match t.ivs.(i).loads with [] -> () | _ -> acc := f i !acc
      done;
      !acc
    in
    let room = live (fun i n -> n + Chen.slice_capacity (chen t i)) 0 in
    Slab.schedule t.finished ~machines:t.machines ~rejected ~room
      (fun buf pos ->
        live
          (fun i pos ->
            Chen.write_slices (chen t i) ~t0:t.bnd.(i) ~t1:t.bnd.(i + 1) buf
              pos)
          pos)

  let stats t =
    {
      arrivals = 0;
      probes = t.probes;
      intervals = t.window_intervals;
      breakpoints = t.breakpoints;
      bisections = t.bisections;
    }

  let mem t =
    {
      live_intervals = intervals t;
      max_live_intervals = t.max_live;
      table_entries = 0;
      max_table_entries = 0;
      flushed_intervals = t.flushed_intervals;
      evicted_jobs = 0;
      finished_slices = Slab.length t.finished;
    }
end
