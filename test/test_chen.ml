(* Tests for the Chen et al. per-interval scheduler: the dedicated/pool
   partition (Eq. 5), the interval energy P_k (Eq. 6), its gradient
   (Proposition 1) and the monotonicity of processor loads under new
   arrivals (Proposition 2). *)

open Speedscale_util
open Speedscale_model
open Speedscale_chen

let check_float = Alcotest.(check (float 1e-9))
let p3 = Power.make 3.0

let build ?(m = 3) ?(l = 1.0) loads =
  Chen.build ~machines:m ~length:l (List.mapi (fun i w -> (i, w)) loads)

(* ------------------------------------------------------------------ *)
(* Partition structure                                                 *)
(* ------------------------------------------------------------------ *)

let test_all_dedicated_when_few_jobs () =
  (* with at most m positive loads every job gets its own processor *)
  let t = build ~m:3 [ 5.0; 1.0; 0.1 ] in
  let p = Chen.partition t in
  Alcotest.(check int) "no pool jobs" 0 (List.length p.pool);
  Alcotest.(check int) "three dedicated" 3 (List.length p.dedicated);
  check_float "fastest speed" 5.0 (Chen.speed_of_job t 0)

let test_single_processor_pools_everything () =
  let t = build ~m:1 [ 1.0; 2.0; 3.0 ] in
  let p = Chen.partition t in
  Alcotest.(check int) "no dedicated" 0 (List.length p.dedicated);
  check_float "pool speed is total" 6.0 p.pool_speed

let test_big_job_dedicated () =
  (* m=2: loads 10, 1, 1, 1 -> job 0 dedicated, rest pooled on 1 proc *)
  let t = build ~m:2 [ 10.0; 1.0; 1.0; 1.0 ] in
  let p = Chen.partition t in
  Alcotest.(check int) "one dedicated" 1 (List.length p.dedicated);
  check_float "dedicated speed" 10.0 (Chen.speed_of_job t 0);
  check_float "pool speed" 3.0 p.pool_speed;
  Alcotest.(check int) "one pool proc" 1 p.pool_procs

let test_balanced_jobs_all_pool () =
  (* m=2: four equal jobs: none dominates the average of the rest *)
  let t = build ~m:2 [ 1.0; 1.0; 1.0; 1.0 ] in
  let p = Chen.partition t in
  Alcotest.(check int) "no dedicated" 0 (List.length p.dedicated);
  check_float "pool speed" 2.0 p.pool_speed

let test_zero_loads_dropped () =
  let t = Chen.build ~machines:2 ~length:1.0 [ (0, 0.0); (1, 2.0) ] in
  check_float "total" 2.0 (Chen.total_load t);
  Alcotest.check_raises "job 0 absent" Not_found (fun () ->
      ignore (Chen.speed_of_job t 0))

let test_interval_length_scaling () =
  (* doubling the interval halves the speeds and scales energy by
     l * (1/l)^alpha *)
  let t1 = build ~m:2 ~l:1.0 [ 4.0; 4.0 ] in
  let t2 = build ~m:2 ~l:2.0 [ 4.0; 4.0 ] in
  check_float "speed halves" 2.0 (Chen.speed_of_job t2 0);
  check_float "energy t1" (2.0 *. 64.0) (Chen.energy p3 t1);
  check_float "energy t2" (2.0 *. 2.0 *. 8.0) (Chen.energy p3 t2)

let gen_loads =
  QCheck.Gen.(
    let* m = 1 -- 5 in
    let* n = 1 -- 12 in
    let* loads = list_size (return n) (float_range 0.01 10.0) in
    let* l = float_range 0.1 5.0 in
    return (m, l, loads))

let arb_loads =
  QCheck.make gen_loads ~print:(fun (m, l, loads) ->
      Printf.sprintf "m=%d l=%g loads=[%s]" m l
        (String.concat ";" (List.map string_of_float loads)))

let prop_partition_invariants =
  QCheck.Test.make ~name:"dedicated >= pool speed; pool fits McNaughton"
    ~count:500 arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let p = Chen.partition t in
      List.length p.dedicated + p.pool_procs = m
      && List.for_all
           (fun (_, w) -> Feq.geq (w /. l) p.pool_speed)
           p.dedicated
      && List.for_all
           (fun (_, w) -> Feq.leq w (p.pool_speed *. l))
           p.pool
      && (p.pool = [] || p.pool_procs > 0))

let prop_work_conservation =
  QCheck.Test.make ~name:"processor loads sum to total load" ~count:500
    arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let per_proc = Ksum.sum_array (Chen.processor_loads t) in
      Feq.approx ~rtol:1e-6 per_proc (Chen.total_load t))

let prop_energy_matches_processor_loads =
  QCheck.Test.make ~name:"P_k equals sum over processor speeds" ~count:500
    arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let direct =
        Ksum.sum_array
          (Array.map
             (fun load -> Power.energy p3 ~speed:(load /. l) ~duration:l)
             (Chen.processor_loads t))
      in
      Feq.approx ~rtol:1e-6 direct (Chen.energy p3 t))

(* Energy optimality against a crude competitor: evenly spreading all the
   work over all m processors is a lower bound ONLY when feasible; instead
   we check Chen is no worse than (a) everything pooled as one block with
   the dedicated rule ignored when it is feasible, and (b) each job on its
   own processor when n <= m. *)
let prop_energy_not_worse_than_naive =
  QCheck.Test.make ~name:"P_k <= naive single-speed upper bounds" ~count:500
    arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let p = Chen.partition t in
      ignore p;
      let n = List.length (List.filter (fun w -> w > 0.0) loads) in
      let chen = Chen.energy p3 t in
      (* bound (b): n <= m, one processor per job *)
      let per_job_ok =
        if n > m then true
        else
          let e =
            Ksum.sum_by
              (fun w ->
                if w <= 0.0 then 0.0
                else Power.energy p3 ~speed:(w /. l) ~duration:l)
              loads
          in
          Feq.leq ~rtol:1e-6 chen e
      in
      (* bound (a): run the whole load on ONE processor (always feasible
         only for a single job, but it upper-bounds the pool part when no
         job exceeds the total; we only apply it when n = 1) *)
      let single_ok =
        if n <> 1 then true
        else
          Feq.approx ~rtol:1e-6 chen
            (Power.energy p3 ~speed:(Chen.total_load t /. l) ~duration:l)
      in
      per_job_ok && single_ok)

(* Convexity of P_k (Proposition 1(a)) along random segments. *)
let prop_pk_convex =
  QCheck.Test.make ~name:"P_k is convex (Prop 1a)" ~count:300
    QCheck.(
      pair arb_loads (pair arb_loads (float_bound_exclusive 1.0)))
    (fun ((m, l, xs), ((_, _, ys), lam)) ->
      let n = min (List.length xs) (List.length ys) in
      QCheck.assume (n >= 1);
      let xs = List.filteri (fun i _ -> i < n) xs in
      let ys = List.filteri (fun i _ -> i < n) ys in
      let mix =
        List.map2 (fun a b -> (lam *. a) +. ((1.0 -. lam) *. b)) xs ys
      in
      let e loads = Chen.energy p3 (build ~m ~l loads) in
      e mix <= (lam *. e xs) +. ((1.0 -. lam) *. e ys) +. 1e-7)

(* ------------------------------------------------------------------ *)
(* Proposition 1(b): gradient                                          *)
(* ------------------------------------------------------------------ *)

(* Central finite difference of P_k w.r.t. one job's load.  We skip points
   that sit exactly on a partition kink by requiring the dedicated set to
   be stable across the probe width. *)
let prop_gradient_matches_fd =
  QCheck.Test.make ~name:"dP_k/dW_j = P'(s_j) (Prop 1b)" ~count:300
    QCheck.(pair arb_loads (int_bound 11))
    (fun ((m, l, loads), pick) ->
      QCheck.assume (loads <> []);
      let idx = pick mod List.length loads in
      let w = List.nth loads idx in
      let h = 1e-6 *. (1.0 +. w) in
      QCheck.assume (w -. h > 0.0);
      let with_load x =
        build ~m ~l (List.mapi (fun i v -> if i = idx then x else v) loads)
      in
      let t = with_load w in
      let t_lo = with_load (w -. h) and t_hi = with_load (w +. h) in
      let stable =
        List.length (Chen.partition t_lo).dedicated
        = List.length (Chen.partition t_hi).dedicated
      in
      QCheck.assume stable;
      let fd = (Chen.energy p3 t_hi -. Chen.energy p3 t_lo) /. (2.0 *. h) in
      let grad = Power.deriv p3 (Chen.speed_of_job t idx) in
      Float.abs (fd -. grad) <= 1e-3 *. (1.0 +. Float.abs grad))

(* ------------------------------------------------------------------ *)
(* Proposition 2: arrival monotonicity                                 *)
(* ------------------------------------------------------------------ *)

let prop_arrival_monotonicity =
  QCheck.Test.make ~name:"0 <= L'_i - L_i <= z (Prop 2)" ~count:500
    QCheck.(pair arb_loads (float_range 0.01 10.0))
    (fun ((m, l, loads), z) ->
      let before = build ~m ~l loads in
      let after =
        Chen.build ~machines:m ~length:l
          ((List.length loads, z) :: List.mapi (fun i w -> (i, w)) loads)
      in
      let lb = Chen.processor_loads before
      and la = Chen.processor_loads after in
      let ok = ref true in
      Array.iteri
        (fun i l_before ->
          let diff = la.(i) -. l_before in
          if not (Feq.geq diff 0.0 && Feq.leq ~rtol:1e-6 diff z) then
            ok := false)
        lb;
      !ok)

(* ------------------------------------------------------------------ *)
(* Probe functions                                                     *)
(* ------------------------------------------------------------------ *)

let test_probe_speed_zero () =
  (* pool exists -> marginal speed is pool speed *)
  let t = build ~m:2 [ 10.0; 1.0; 1.0; 1.0 ] in
  check_float "pool marginal" 3.0 (Chen.probe_speed t 0.0);
  (* all dedicated -> marginal is the smallest dedicated speed *)
  let t2 = build ~m:2 [ 5.0; 4.0 ] in
  check_float "smallest dedicated" 4.0 (Chen.probe_speed t2 0.0);
  (* empty machine -> free capacity *)
  let t3 = build ~m:2 [] in
  check_float "empty" 0.0 (Chen.probe_speed t3 0.0)

let test_probe_speed_grows () =
  let t = build ~m:2 [ 5.0; 4.0 ] in
  (* probe of load 1 pools with the 4-job on one processor: together they
     carry 5 units of work in unit time *)
  check_float "pooled with smallest" 5.0 (Chen.probe_speed t 1.0);
  (* huge probe becomes dedicated *)
  check_float "dedicated probe" 20.0 (Chen.probe_speed t 20.0)

let test_probe_load_for_speed_examples () =
  let t = build ~m:2 [ 5.0; 4.0 ] in
  (* to reach speed 4.5 the probe pools with the 4-job:
     z + 4 = 4.5 * 2?? no: pool = {4, z} on one proc -> speed (4+z)/1;
     for speed 4.5: z = 0.5 *)
  check_float "pool with 4" 0.5 (Chen.probe_load_for_speed t 4.5);
  (* to reach speed 6 the probe must be dedicated: z = 6, and the 4 and 5
     jobs share the other processor at speed 9 > 6?? then probe would not
     be fastest... still consistent: dedicated set by Eq.5. *)
  let z = Chen.probe_load_for_speed t 6.0 in
  check_float "roundtrip" 6.0 (Chen.probe_speed t z)

let test_probe_below_current_speed () =
  let t = build ~m:1 [ 3.0 ] in
  check_float "unreachable speed" 0.0 (Chen.probe_load_for_speed t 2.0)

let prop_probe_roundtrip =
  QCheck.Test.make ~name:"probe_load_for_speed inverts probe_speed"
    ~count:500
    QCheck.(pair arb_loads (float_range 0.01 20.0))
    (fun ((m, l, loads), z) ->
      let t = build ~m ~l loads in
      let s = Chen.probe_speed t z in
      let z' = Chen.probe_load_for_speed t s in
      (* the inversion can only fail at the plateau s = probe_speed 0 *)
      if s <= Chen.probe_speed t 0.0 +. 1e-9 then true
      else Feq.approx ~atol:1e-6 ~rtol:1e-6 z z')

let prop_probe_speed_monotone =
  QCheck.Test.make ~name:"probe_speed is nondecreasing" ~count:300
    QCheck.(triple arb_loads (float_range 0.0 10.0) (float_range 0.0 10.0))
    (fun ((m, l, loads), z1, z2) ->
      let t = build ~m ~l loads in
      let lo = Float.min z1 z2 and hi = Float.max z1 z2 in
      Chen.probe_speed t lo <= Chen.probe_speed t hi +. 1e-9)

let prop_marginal_power_is_min_gradient =
  QCheck.Test.make
    ~name:"marginal power equals P' of the slowest processor's speed"
    ~count:300 arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let speeds =
        Array.map (fun load -> load /. l) (Chen.processor_loads t)
      in
      let slowest = Array.fold_left Float.min Float.infinity speeds in
      Feq.approx ~rtol:1e-6
        (Chen.marginal_power p3 t)
        (Power.deriv p3 slowest))

(* ------------------------------------------------------------------ *)
(* Breakpoints and incremental updates                                 *)
(* ------------------------------------------------------------------ *)

(* The contract PD's fast water-filling relies on: the capped response
   g s = min (probe_load_for_speed s) cap is affine between adjacent
   breakpoints, zero at the first and cap at the last.  Affinity is
   checked by midpoint interpolation on every segment. *)
let prop_breakpoints_piecewise_affine =
  QCheck.Test.make
    ~name:"probe_breakpoints: g affine per segment, 0 at first, cap at last"
    ~count:500
    QCheck.(pair arb_loads (float_range 0.05 8.0))
    (fun ((m, l, loads), cap) ->
      let t = build ~m ~l loads in
      let bps = Chen.probe_breakpoints t ~cap in
      let g s = Float.min (Chen.probe_load_for_speed t s) cap in
      let n = Array.length bps in
      if n < 2 then QCheck.Test.fail_reportf "only %d breakpoints" n;
      for i = 1 to n - 1 do
        if not (bps.(i) > bps.(i - 1)) then
          QCheck.Test.fail_reportf "not strictly sorted at %d" i
      done;
      if not (Feq.approx ~atol:1e-9 ~rtol:1e-9 (g bps.(0)) 0.0) then
        QCheck.Test.fail_reportf "g at first = %g, expected 0" (g bps.(0));
      if not (Feq.approx ~rtol:1e-9 (g bps.(n - 1)) cap) then
        QCheck.Test.fail_reportf "g at last = %g, expected cap %g"
          (g bps.(n - 1))
          cap;
      let ok = ref true in
      for i = 0 to n - 2 do
        let a = bps.(i) and b = bps.(i + 1) in
        let mid = 0.5 *. (a +. b) in
        let interp = 0.5 *. (g a +. g b) in
        if Float.abs (g mid -. interp) > 1e-7 *. (1.0 +. Float.abs interp)
        then ok := false
      done;
      !ok)

let test_breakpoints_empty_interval () =
  (* a fresh interval with no committed load: the response is s*l capped *)
  let t = build ~m:2 ~l:2.0 [] in
  let bps = Chen.probe_breakpoints t ~cap:3.0 in
  let g s = Float.min (Chen.probe_load_for_speed t s) 3.0 in
  check_float "zero at first" 0.0 (g bps.(0));
  check_float "cap at last" 3.0 (g bps.(Array.length bps - 1))

(* [write_breakpoints] is the generator behind [probe_breakpoints]: its
   output, sorted and deduplicated, is exactly the breakpoint list cut
   below [below]; it writes only inside [pos, pos + capacity) and returns
   the end of what it wrote. *)
let prop_write_breakpoints_cut =
  QCheck.Test.make
    ~name:"write_breakpoints: in bounds, sorted = probe_breakpoints below cut"
    ~count:500
    QCheck.(
      quad arb_loads (float_range 0.05 8.0) (float_range 0.0 1.5)
        (int_range 0 5))
    (fun ((m, l, loads), cap, frac, pos) ->
      let t = build ~m ~l loads in
      let full = Chen.probe_breakpoints t ~cap in
      let nf = Array.length full in
      (* no cut, a cut exactly at a breakpoint (which must drop it), or a
         cut between breakpoints *)
      let below =
        if frac > 1.25 then Float.infinity
        else if frac > 1.0 then
          full.(int_of_float ((frac -. 1.0) *. 4.0 *. float_of_int nf) mod nf)
        else full.(0) +. (frac *. (full.(nf - 1) -. full.(0)))
      in
      let capacity = Chen.breakpoint_capacity t in
      let buf = Array.make (pos + capacity + 2) Float.nan in
      let stop = Chen.write_breakpoints t ~cap ~below buf pos in
      if stop < pos || stop > pos + capacity then
        QCheck.Test.fail_reportf "wrote [%d, %d), capacity %d" pos stop
          capacity;
      Array.iteri
        (fun i x ->
          if (i < pos || i >= stop) && not (Float.is_nan x) then
            QCheck.Test.fail_reportf "wrote outside [%d, %d) at %d" pos stop
              i)
        buf;
      let got =
        Array.of_list
          (List.sort_uniq Float.compare
             (Array.to_list (Array.sub buf pos (stop - pos))))
      in
      let want =
        Array.of_list (List.filter (fun s -> s < below) (Array.to_list full))
      in
      if got <> want then
        QCheck.Test.fail_reportf "%d breakpoints below %g, expected %d"
          (Array.length got) below (Array.length want);
      true)

(* [bracket_crossing] against a sort + binary search over the same
   candidates, for a step [f] that is 0 below [thr] and 1 from it on,
   with the target at 1/2.  Also checks the returned [f] values, that [f]
   is never called twice at one value nor at [top], and the bound on
   its calls: with the sweep at [top] they stay within
   [2 ceil(log2 (n + 1)) + 2]. *)
let check_bracket ~name (a : float array) thr =
  let n = Array.length a in
  let top = Array.fold_left Float.max 0.0 a +. 1.0 in
  let f x = if x >= thr then 1.0 else 0.0 in
  let seen = Hashtbl.create 16 in
  let calls = ref 0 in
  let counted x =
    incr calls;
    if Hashtbl.mem seen x || Float.equal x top then
      Alcotest.failf "%s: f called again at %g" name x;
    Hashtbl.add seen x ();
    f x
  in
  let buf = Array.append a [| Float.nan |] in
  let sa, fa, sb, fb =
    Chen.bracket_crossing buf n ~f:counted ~target:0.5 ~top ~f_top:(f top)
  in
  let sorted =
    Array.of_list (List.sort_uniq Float.compare (Array.to_list a) @ [ top ])
  in
  let lo = ref 0 and hi = ref (Array.length sorted - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if f sorted.(mid) >= 0.5 then hi := mid else lo := mid + 1
  done;
  let want_sb = sorted.(!hi) in
  let want_sa = if !hi = 0 then Float.neg_infinity else sorted.(!hi - 1) in
  let bits = Alcotest.(float 0.0) in
  Alcotest.check bits (name ^ ": sa") want_sa sa;
  Alcotest.check bits (name ^ ": sb") want_sb sb;
  Alcotest.check bits (name ^ ": fa") (if !hi = 0 then 0.0 else f sa) fa;
  Alcotest.check bits (name ^ ": fb") (f sb) fb;
  let rec ceil_log2 k = if k <= 1 then 0 else 1 + ceil_log2 ((k + 1) / 2) in
  let bound = (2 * ceil_log2 (n + 1)) + 2 in
  if !calls + 1 > bound then
    Alcotest.failf "%s: %d sweeps for %d candidates, bound %d" name
      (!calls + 1) n bound

(* Adversarial candidate orders: the median-of-3 killer (what McIlroy's
   adversary, "A killer adversary for quicksort" (1999), builds against a
   first/middle/last pivot and Hoare partition: even values on the even
   slots of the first half, one repeated large value on its odd slots,
   the odd values 3, 5, ... from the middle on, and 1 last), the same
   idea replayed against this search ([selection_killer] below), sorted,
   reversed, all equal and a few values repeated many times.  The threshold runs over every
   distinct value and past both ends. *)
let median_of_three_killer n =
  let h = n / 2 in
  Array.init n (fun i ->
      float_of_int
        (if i < h then if i mod 2 = 0 then i else n
         else if i = n - 1 then 1
         else (2 * (i - h)) + 3))

(* The order that defeats [bracket_crossing]'s own median-of-3 pivot
   when the crossing lies above every candidate: built by replaying the
   search, each step's first and middle survivors get the two smallest
   values not yet given out, so the pivot is the second smallest
   survivor and the step drops only two candidates.  Without the
   exact-median fallback the search would take about n / 2 sweeps. *)
let selection_killer n =
  let a = Array.make n 0.0 in
  let next = ref 0 in
  let give i =
    a.(i) <- float_of_int !next;
    incr next
  in
  let rec go live =
    match Array.of_list live with
    | [||] -> ()
    | arr ->
      let first = arr.(0) and mid = arr.(Array.length arr / 2) in
      give first;
      if mid <> first then give mid;
      go (List.filter (fun i -> i <> first && i <> mid) live)
  in
  go (List.init n Fun.id);
  a

let test_bracket_crossing_adversarial () =
  let shapes n =
    [
      ("killer", median_of_three_killer n);
      ("selection killer", selection_killer n);
      ("sorted", Array.init n float_of_int);
      ("reversed", Array.init n (fun i -> float_of_int (n - i)));
      ("all equal", Array.make n 7.0);
      ("duplicates", Array.init n (fun i -> float_of_int (i * 7919 mod 5)));
    ]
  in
  List.iter
    (fun n ->
      List.iter
        (fun (shape, a) ->
          let distinct = List.sort_uniq Float.compare (Array.to_list a) in
          let stride = Int.max 1 (List.length distinct / 40) in
          let thrs =
            (-1.0 :: List.filteri (fun i _ -> i mod stride = 0) distinct)
            @ [ 1e9 ]
          in
          List.iter
            (fun thr ->
              check_bracket
                ~name:(Printf.sprintf "%s n=%d thr=%g" shape n thr)
                (Array.copy a) thr)
            thrs)
        (shapes n))
    [ 0; 1; 2; 3; 16; 40; 64; 100; 1000; 4096 ]

let prop_bracket_crossing_random =
  QCheck.Test.make ~name:"bracket_crossing = sort + binary search" ~count:500
    QCheck.(
      pair
        (list_of_size Gen.(0 -- 300) (map float_of_int (int_range (-40) 40)))
        (int_range (-42) 42))
    (fun (xs, thr) ->
      let a = Array.of_list (List.map (fun x -> x /. 4.0) xs) in
      check_bracket ~name:"random" a (float_of_int thr /. 4.0);
      true)

let close_12 a b = Feq.approx ~atol:1e-12 ~rtol:1e-12 a b

let same_problem a b =
  let la = Chen.processor_loads a and lb = Chen.processor_loads b in
  close_12 (Chen.total_load a) (Chen.total_load b)
  && close_12 (Chen.energy p3 a) (Chen.energy p3 b)
  && Array.length la = Array.length lb
  && Array.for_all2 close_12 la lb
  &&
  let s = (1.5 *. Chen.probe_speed a 0.0) +. 0.5 in
  close_12 (Chen.probe_load_for_speed a s) (Chen.probe_load_for_speed b s)

let prop_add_load_matches_build =
  QCheck.Test.make ~name:"add_load = build on the extended load list"
    ~count:500
    QCheck.(pair arb_loads (float_range 0.01 10.0))
    (fun ((m, l, loads), z) ->
      let incr = Chen.add_load (build ~m ~l loads) (List.length loads, z) in
      let full =
        Chen.build ~machines:m ~length:l
          ((List.length loads, z) :: List.mapi (fun i w -> (i, w)) loads)
      in
      same_problem incr full)

let prop_rescale_matches_build =
  QCheck.Test.make ~name:"rescale = build on the scaled loads" ~count:500
    QCheck.(triple arb_loads (float_range 0.1 3.0) (float_range 0.1 3.0))
    (fun ((m, l, loads), factor, l') ->
      let scaled = Chen.rescale (build ~m ~l loads) ~length:l' ~factor in
      let full =
        Chen.build ~machines:m ~length:l'
          (List.mapi (fun i w -> (i, w *. factor)) loads)
      in
      same_problem scaled full)

(* ------------------------------------------------------------------ *)
(* Slices (McNaughton realization)                                     *)
(* ------------------------------------------------------------------ *)

let slices_work_per_job slices =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun (s : Schedule.slice) ->
      let prev = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.job) in
      Hashtbl.replace tbl s.job (prev +. ((s.t1 -. s.t0) *. s.speed)))
    slices;
  tbl

let no_overlap key_of slices =
  let groups = Hashtbl.create 8 in
  List.iter
    (fun (s : Schedule.slice) ->
      let k = key_of s in
      Hashtbl.replace groups k
        (s :: Option.value ~default:[] (Hashtbl.find_opt groups k)))
    slices;
  Hashtbl.fold
    (fun _ group acc ->
      acc
      &&
      let sorted =
        List.sort
          (fun (a : Schedule.slice) b -> Float.compare a.t0 b.t0)
          group
      in
      let rec ok = function
        | (a : Schedule.slice) :: (b :: _ as rest) ->
          b.t0 >= a.t1 -. 1e-9 && ok rest
        | _ -> true
      in
      ok sorted)
    groups true

let prop_slices_realize_loads =
  QCheck.Test.make ~name:"slices process exactly each job's load" ~count:400
    arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let slices = Chen.slices t ~t0:1.0 ~t1:(1.0 +. l) in
      let work = slices_work_per_job slices in
      List.for_all
        (fun (i, w) ->
          if w <= 0.0 then true
          else
            Feq.approx ~atol:1e-6 ~rtol:1e-6 w
              (Option.value ~default:0.0 (Hashtbl.find_opt work i)))
        (List.mapi (fun i w -> (i, w)) loads))

let prop_slices_no_overlap =
  QCheck.Test.make ~name:"slices overlap-free per processor and per job"
    ~count:400 arb_loads (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let slices = Chen.slices t ~t0:0.0 ~t1:l in
      no_overlap (fun s -> s.Schedule.proc) slices
      && no_overlap (fun s -> s.Schedule.job) slices
      && List.for_all
           (fun (s : Schedule.slice) ->
             s.proc >= 0 && s.proc < m && s.t0 >= -1e-9 && s.t1 <= l +. 1e-9)
           slices)

let prop_slices_energy_matches_pk =
  QCheck.Test.make ~name:"slice energy equals P_k" ~count:400 arb_loads
    (fun (m, l, loads) ->
      let t = build ~m ~l loads in
      let slices = Chen.slices t ~t0:0.0 ~t1:l in
      let e =
        Ksum.sum_by
          (fun (s : Schedule.slice) ->
            Power.energy p3 ~speed:s.speed ~duration:(s.t1 -. s.t0))
          slices
      in
      Feq.approx ~atol:1e-6 ~rtol:1e-6 e (Chen.energy p3 t))

(* Regression: accumulated rounding in the McNaughton wrap once pushed the
   cursor past the last pool processor ("slice processor out of range").
   Many equal pool jobs with non-representable durations exercise it. *)
let test_mcnaughton_float_spill () =
  List.iter
    (fun (m, n, l) ->
      let loads = List.init n (fun i -> (i, 1.0 /. 3.0)) in
      let t = Chen.build ~machines:m ~length:l loads in
      let slices = Chen.slices t ~t0:0.0 ~t1:l in
      List.iter
        (fun (s : Schedule.slice) ->
          Alcotest.(check bool) "processor in range" true
            (s.proc >= 0 && s.proc < m))
        slices;
      (* work preserved for every job *)
      let work = slices_work_per_job slices in
      List.iter
        (fun (i, w) ->
          Alcotest.(check (float 1e-6))
            (Printf.sprintf "work of job %d" i)
            w
            (Option.value ~default:0.0 (Hashtbl.find_opt work i)))
        (List.mapi (fun i w -> (i, snd w)) (List.map (fun x -> x) loads)))
    [ (4, 12, 0.3); (2, 9, 0.7); (3, 17, 1.0 /. 7.0); (1, 5, 0.1) ]

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "chen"
    [
      ( "partition",
        [
          Alcotest.test_case "few jobs all dedicated" `Quick
            test_all_dedicated_when_few_jobs;
          Alcotest.test_case "single processor" `Quick
            test_single_processor_pools_everything;
          Alcotest.test_case "big job dedicated" `Quick test_big_job_dedicated;
          Alcotest.test_case "balanced all pool" `Quick
            test_balanced_jobs_all_pool;
          Alcotest.test_case "zero loads dropped" `Quick test_zero_loads_dropped;
          Alcotest.test_case "length scaling" `Quick test_interval_length_scaling;
          q prop_partition_invariants;
          q prop_work_conservation;
          q prop_energy_matches_processor_loads;
          q prop_energy_not_worse_than_naive;
          q prop_pk_convex;
        ] );
      ( "gradient",
        [ q prop_gradient_matches_fd ] );
      ( "arrival",
        [ q prop_arrival_monotonicity ] );
      ( "probe",
        [
          Alcotest.test_case "probe at zero" `Quick test_probe_speed_zero;
          Alcotest.test_case "probe grows" `Quick test_probe_speed_grows;
          Alcotest.test_case "load for speed" `Quick
            test_probe_load_for_speed_examples;
          Alcotest.test_case "unreachable speed" `Quick
            test_probe_below_current_speed;
          q prop_probe_roundtrip;
          q prop_probe_speed_monotone;
          q prop_marginal_power_is_min_gradient;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "breakpoints on empty interval" `Quick
            test_breakpoints_empty_interval;
          q prop_breakpoints_piecewise_affine;
          q prop_write_breakpoints_cut;
          Alcotest.test_case "bracket_crossing on adversarial orders" `Quick
            test_bracket_crossing_adversarial;
          q prop_bracket_crossing_random;
          q prop_add_load_matches_build;
          q prop_rescale_matches_build;
        ] );
      ( "slices",
        [
          Alcotest.test_case "mcnaughton float spill" `Quick
            test_mcnaughton_float_spill;
          q prop_slices_realize_loads;
          q prop_slices_no_overlap;
          q prop_slices_energy_matches_pk;
        ] );
    ]
