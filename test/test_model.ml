(* Unit and property tests for the model layer: power function, jobs,
   instances, atomic-interval timelines and schedules. *)

open Speedscale_util
open Speedscale_model

let check_float = Alcotest.(check (float 1e-9))
let p3 = Power.make 3.0
let p2 = Power.make 2.0

(* ------------------------------------------------------------------ *)
(* Power                                                               *)
(* ------------------------------------------------------------------ *)

let test_power_basics () =
  check_float "P_3(2)" 8.0 (Power.energy_rate p3 2.0);
  check_float "P_2(5)" 25.0 (Power.energy_rate p2 5.0);
  check_float "zero speed" 0.0 (Power.energy_rate p3 0.0);
  check_float "energy" 16.0 (Power.energy p3 ~speed:2.0 ~duration:2.0);
  check_float "deriv P_3" 12.0 (Power.deriv p3 2.0);
  check_float "deriv at 0" 0.0 (Power.deriv p3 0.0)

let test_power_inverse () =
  (* inv_deriv is the right inverse of deriv *)
  List.iter
    (fun s ->
      check_float
        (Printf.sprintf "roundtrip %g" s)
        s
        (Power.inv_deriv p3 (Power.deriv p3 s)))
    [ 0.0; 0.5; 1.0; 2.0; 10.0 ]

let test_power_constants () =
  check_float "alpha^alpha (3)" 27.0 (Power.competitive_bound p3);
  check_float "alpha^alpha (2)" 4.0 (Power.competitive_bound p2);
  check_float "delta* (3)" (1.0 /. 9.0) (Power.delta_star p3);
  check_float "delta* (2)" 0.5 (Power.delta_star p2);
  check_float "CLL bound (2)" (4.0 +. (4.0 *. Float.exp 1.0)) (Power.cll_bound p2);
  (* alpha = 2: factor alpha^((alpha-2)/(alpha-1)) = 2^0 = 1 *)
  check_float "rejection factor (2)" 1.0 (Power.rejection_speed_factor p2);
  check_float "rejection factor (3)" (3.0 ** 0.5) (Power.rejection_speed_factor p3)

let test_power_invalid () =
  Alcotest.check_raises "alpha = 1 rejected"
    (Invalid_argument "Power.make: alpha must be finite > 1: 1") (fun () ->
      ignore (Power.make 1.0))

let prop_power_convexity =
  QCheck.Test.make ~name:"P_alpha is convex" ~count:300
    QCheck.(
      triple (float_bound_exclusive 10.0) (float_bound_exclusive 10.0)
        (float_bound_exclusive 1.0))
    (fun (s1, s2, t) ->
      let mid = (t *. s1) +. ((1.0 -. t) *. s2) in
      let lhs = Power.energy_rate p3 mid in
      let rhs =
        (t *. Power.energy_rate p3 s1) +. ((1.0 -. t) *. Power.energy_rate p3 s2)
      in
      lhs <= rhs +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Job                                                                 *)
(* ------------------------------------------------------------------ *)

let mk_job ?(id = 0) ?(r = 0.0) ?(d = 1.0) ?(w = 1.0) ?(v = 1.0) () =
  Job.make ~id ~release:r ~deadline:d ~workload:w ~value:v

let test_job_accessors () =
  let j = mk_job ~r:1.0 ~d:3.0 ~w:4.0 ~v:8.0 () in
  check_float "span" 2.0 (Job.span j);
  check_float "density" 2.0 (Job.density j);
  check_float "value density" 2.0 (Job.value_density j);
  Alcotest.(check bool) "available inside" true (Job.available_at j 2.0);
  Alcotest.(check bool) "available at release" true (Job.available_at j 1.0);
  Alcotest.(check bool) "not at deadline" false (Job.available_at j 3.0);
  Alcotest.(check bool) "covers sub" true (Job.covers j ~lo:1.5 ~hi:2.5);
  Alcotest.(check bool) "no cover over" false (Job.covers j ~lo:2.0 ~hi:3.5)

let test_job_validation () =
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.failf "%s: expected Invalid_argument" name
  in
  expect_invalid "deadline <= release" (fun () -> mk_job ~r:1.0 ~d:1.0 ());
  expect_invalid "zero workload" (fun () -> mk_job ~w:0.0 ());
  expect_invalid "negative value" (fun () -> mk_job ~v:(-1.0) ());
  expect_invalid "negative release" (fun () -> mk_job ~r:(-0.5) ())

let test_job_infinite_value () =
  let j = mk_job ~v:Float.infinity () in
  check_float "vd" Float.infinity (Job.value_density j)

(* ------------------------------------------------------------------ *)
(* Instance                                                            *)
(* ------------------------------------------------------------------ *)

let test_instance_sorting () =
  let jobs =
    [
      mk_job ~id:5 ~r:2.0 ~d:3.0 ();
      mk_job ~id:9 ~r:0.0 ~d:1.0 ();
      mk_job ~id:7 ~r:1.0 ~d:2.0 ();
    ]
  in
  let inst = Instance.make ~power:p3 ~machines:2 jobs in
  Alcotest.(check int) "n" 3 (Instance.n_jobs inst);
  check_float "first release" 0.0 (Instance.job inst 0).release;
  check_float "last release" 2.0 (Instance.job inst 2).release;
  Alcotest.(check (list int)) "ids are ranks" [ 0; 1; 2 ]
    (List.init 3 (fun i -> (Instance.job inst i).id));
  let lo, hi = Instance.horizon inst in
  check_float "horizon lo" 0.0 lo;
  check_float "horizon hi" 3.0 hi

let test_instance_values () =
  let inst =
    Instance.make ~power:p3 ~machines:1 [ mk_job ~v:2.0 (); mk_job ~v:3.0 () ]
  in
  check_float "total value" 5.0 (Instance.total_value inst);
  Alcotest.(check bool) "not must-finish" false (Instance.must_finish inst);
  let inf = Instance.with_values inst (fun _ -> Float.infinity) in
  Alcotest.(check bool) "must-finish" true (Instance.must_finish inf)

let test_instance_restrict () =
  let inst =
    Instance.make ~power:p3 ~machines:1
      [ mk_job ~r:0.0 ~w:1.0 (); mk_job ~r:0.5 ~d:2.0 ~w:9.0 () ]
  in
  let sub = Instance.restrict inst ~keep:(fun j -> j.workload > 5.0) in
  Alcotest.(check int) "one job" 1 (Instance.n_jobs sub);
  check_float "kept the big one" 9.0 (Instance.job sub 0).workload;
  Alcotest.(check int) "re-ranked" 0 (Instance.job sub 0).id

(* ------------------------------------------------------------------ *)
(* Timeline                                                            *)
(* ------------------------------------------------------------------ *)

let test_timeline_of_jobs () =
  let tl =
    Timeline.of_jobs
      [ mk_job ~r:0.0 ~d:2.0 (); mk_job ~r:1.0 ~d:2.0 (); mk_job ~r:1.0 ~d:4.0 () ]
  in
  Alcotest.(check int) "intervals" 3 (Timeline.n_intervals tl);
  check_float "l_0" 1.0 (Timeline.length tl 0);
  check_float "l_1" 1.0 (Timeline.length tl 1);
  check_float "l_2" 2.0 (Timeline.length tl 2)

let test_timeline_covering () =
  let tl = Timeline.of_times [ 0.0; 1.0; 2.0; 4.0 ] in
  Alcotest.(check (list int)) "full" [ 0; 1; 2 ]
    (Timeline.covering tl ~release:0.0 ~deadline:4.0);
  Alcotest.(check (list int)) "middle" [ 1 ]
    (Timeline.covering tl ~release:1.0 ~deadline:2.0);
  Alcotest.check_raises "non-boundary window"
    (Invalid_argument
       "Timeline.covering: window [0.5, 2) endpoints are not boundaries")
    (fun () -> ignore (Timeline.covering tl ~release:0.5 ~deadline:2.0))

let test_timeline_refine () =
  let tl = Timeline.of_times [ 0.0; 2.0; 4.0 ] in
  let tl', map = Timeline.refine tl 1.0 in
  Alcotest.(check int) "split adds one" 3 (Timeline.n_intervals tl');
  Alcotest.(check (list int)) "old 0 -> 0,1" [ 0; 1 ] (map 0);
  Alcotest.(check (list int)) "old 1 -> 2" [ 2 ] (map 1);
  check_float "new bound" 1.0 (Timeline.boundaries tl').(1);
  (* refining on an existing boundary is the identity *)
  let tl'', map' = Timeline.refine tl 2.0 in
  Alcotest.(check int) "no-op" 2 (Timeline.n_intervals tl'');
  Alcotest.(check (list int)) "identity map" [ 1 ] (map' 1)

let test_timeline_index_at () =
  let tl = Timeline.of_times [ 0.0; 1.0; 3.0 ] in
  Alcotest.(check (option int)) "inside first" (Some 0) (Timeline.index_at tl 0.5);
  Alcotest.(check (option int)) "boundary belongs right" (Some 1)
    (Timeline.index_at tl 1.0);
  Alcotest.(check (option int)) "before" None (Timeline.index_at tl (-0.1));
  Alcotest.(check (option int)) "at end" None (Timeline.index_at tl 3.0)

let prop_timeline_refine_preserves_measure =
  QCheck.Test.make ~name:"refine preserves interval lengths" ~count:200
    QCheck.(
      pair
        (list_of_size Gen.(2 -- 8) (float_bound_exclusive 10.0))
        (float_bound_exclusive 10.0))
    (fun (times, cut) ->
      QCheck.assume (List.length (List.sort_uniq Float.compare times) >= 2);
      let tl = Timeline.of_times times in
      let tl', map = Timeline.refine tl cut in
      List.for_all
        (fun k ->
          let parts = Ksum.sum_by (Timeline.length tl') (map k) in
          Feq.approx parts (Timeline.length tl k))
        (List.init (Timeline.n_intervals tl) Fun.id))

(* ------------------------------------------------------------------ *)
(* Schedule                                                            *)
(* ------------------------------------------------------------------ *)

let two_job_instance =
  Instance.make ~power:p3 ~machines:2
    [
      mk_job ~r:0.0 ~d:2.0 ~w:2.0 ~v:10.0 ();
      mk_job ~r:0.0 ~d:2.0 ~w:4.0 ~v:10.0 ();
    ]

let slice proc t0 t1 job speed = { Schedule.proc; t0; t1; job; speed }

let test_schedule_energy_and_cost () =
  let s =
    Schedule.make ~machines:2 ~rejected:[]
      [ slice 0 0.0 2.0 0 1.0; slice 1 0.0 2.0 1 2.0 ]
  in
  (* energy = 2*1^3 + 2*2^3 = 18 *)
  check_float "energy" 18.0 (Schedule.energy p3 s);
  check_float "work job0" 2.0 (Schedule.work_of_job s 0);
  check_float "work job1" 4.0 (Schedule.work_of_job s 1);
  let c = Schedule.cost two_job_instance s in
  check_float "no loss" 0.0 c.lost_value;
  check_float "total" 18.0 (Cost.total c);
  Alcotest.(check (list int)) "all finished" [ 0; 1 ]
    (Schedule.finished two_job_instance s)

let test_schedule_lost_value () =
  let s = Schedule.make ~machines:2 ~rejected:[ 1 ] [ slice 0 0.0 2.0 0 1.0 ] in
  let c = Schedule.cost two_job_instance s in
  check_float "lost job 1" 10.0 c.lost_value;
  Alcotest.(check (list int)) "unfinished" [ 1 ]
    (Schedule.unfinished two_job_instance s)

let test_schedule_validate_ok () =
  let s =
    Schedule.make ~machines:2 ~rejected:[]
      [ slice 0 0.0 2.0 0 1.0; slice 1 0.0 2.0 1 2.0 ]
  in
  match Schedule.validate two_job_instance s with
  | Ok () -> ()
  | Error e -> Alcotest.failf "expected valid schedule: %s" e

let test_schedule_validate_overlap () =
  let s =
    Schedule.make ~machines:2 ~rejected:[ 1 ]
      [ slice 0 0.0 1.5 0 2.0; slice 0 1.0 2.0 0 1.0 ]
  in
  match Schedule.validate two_job_instance s with
  | Ok () -> Alcotest.fail "overlap not detected"
  | Error _ -> ()

let test_schedule_validate_window () =
  let s =
    Schedule.make ~machines:2 ~rejected:[ 1 ] [ slice 0 0.0 2.5 0 1.0 ]
  in
  match Schedule.validate two_job_instance s with
  | Ok () -> Alcotest.fail "window violation not detected"
  | Error _ -> ()

let test_schedule_validate_unfinished () =
  (* job 0 only half-processed and not rejected *)
  let s =
    Schedule.make ~machines:2 ~rejected:[ 1 ] [ slice 0 0.0 1.0 0 1.0 ]
  in
  match Schedule.validate two_job_instance s with
  | Ok () -> Alcotest.fail "missing work not detected"
  | Error _ -> ()

let test_schedule_job_parallelism () =
  (* same job on two processors at once is infeasible *)
  let s =
    Schedule.make ~machines:2 ~rejected:[ 1 ]
      [ slice 0 0.0 1.0 0 1.0; slice 1 0.5 1.5 0 1.0 ]
  in
  match Schedule.validate two_job_instance s with
  | Ok () -> Alcotest.fail "job parallelism not detected"
  | Error _ -> ()

let test_schedule_profiles () =
  let s =
    Schedule.make ~machines:2 ~rejected:[]
      [ slice 0 1.0 2.0 0 1.0; slice 0 0.0 1.0 1 2.0; slice 1 0.0 2.0 1 1.0 ]
  in
  Alcotest.(check int) "proc0 has two runs" 2
    (List.length (Schedule.speed_profile s ~proc:0));
  Alcotest.(check int) "job1 busy twice" 2
    (List.length (Schedule.busy_intervals s ~job:1))

let test_schedule_speed_at () =
  let s =
    Schedule.make ~machines:2 ~rejected:[]
      [ slice 0 0.0 1.0 0 1.5; slice 0 1.0 2.0 1 2.5 ]
  in
  check_float "inside first" 1.5 (Schedule.speed_at s ~proc:0 0.5);
  check_float "boundary takes incoming" 2.5 (Schedule.speed_at s ~proc:0 1.0);
  check_float "idle" 0.0 (Schedule.speed_at s ~proc:0 3.0);
  check_float "other processor idle" 0.0 (Schedule.speed_at s ~proc:1 0.5);
  Alcotest.(check (option int)) "running job" (Some 1)
    (Schedule.running_at s ~proc:0 1.5);
  Alcotest.(check (option int)) "nobody" None (Schedule.running_at s ~proc:1 0.5)

let test_schedule_drops_null_slices () =
  let s =
    Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 1.0 0 0.0 ]
  in
  Alcotest.(check int) "zero-speed dropped" 0 (Schedule.length s)

(* Ids are stored as floats: those below 2^53 in magnitude round-trip
   exactly, larger ones are refused rather than read back rounded. *)
let test_schedule_exact_ids () =
  let big = (1 lsl 53) - 1 in
  let s =
    Schedule.make ~machines:1 ~rejected:[] [ slice 0 0.0 1.0 big 1.0 ]
  in
  Alcotest.(check (list int)) "largest exact job id" [ big ]
    (List.map (fun (x : Schedule.slice) -> x.job) (Schedule.slices s));
  Alcotest.(check (array int)) "jobs" [| big |] (Schedule.jobs s);
  Alcotest.check_raises "job id 2^53"
    (Invalid_argument
       "Schedule.make: slice job id 9007199254740992 out of range")
    (fun () ->
      ignore
        (Schedule.make ~machines:1 ~rejected:[]
           [ slice 0 0.0 1.0 (1 lsl 53) 1.0 ]));
  Alcotest.check_raises "job id max_int"
    (Invalid_argument
       "Schedule.make: slice job id 4611686018427387904 out of range")
    (fun () ->
      ignore
        (Schedule.make ~machines:1 ~rejected:[]
           [ slice 0 0.0 1.0 max_int 1.0 ]));
  Alcotest.check_raises "processor max_int"
    (Invalid_argument
       "Schedule.make: slice processor 4611686018427387904 out of range")
    (fun () ->
      ignore
        (Schedule.make ~machines:1 ~rejected:[]
           [ slice max_int 0.0 1.0 0 1.0 ]))

(* [Schedule.make] and [Schedule.of_records] follow the list rule below:
   check each slice in list order, raise at the first that fails with its
   message, and drop the zero-speed and zero-length ones.  The lists mix
   valid slices with zero-speed and zero-length ones, processors out of
   range, non-finite times and speeds, t0 >= t1, and job ids beyond the
   2^53 that a float holds exactly. *)
let gen_raw_slice machines =
  let open QCheck.Gen in
  let time =
    frequency
      [
        (8, map (fun k -> float_of_int k /. 2.0) (int_range 0 8));
        (1, oneofl [ Float.nan; Float.infinity; Float.neg_infinity; -0.0 ]);
      ]
  in
  let speed =
    frequency
      [
        (6, oneofl [ 0.5; 1.0; 2.5 ]);
        (2, return 0.0);
        (1, oneofl [ -1.0; Float.nan; Float.infinity ]);
      ]
  in
  map
    (fun ((proc, job), (t0, t1), sp) -> slice proc t0 t1 job sp)
    (triple
       (pair (int_range (-1) machines)
          (frequency
             [
               (12, int_range (-2) 20);
               (1, oneofl [ 1 lsl 53; -(1 lsl 53); max_int; (1 lsl 53) - 1 ]);
             ]))
       (pair time time) speed)

let gen_raw_schedule =
  QCheck.Gen.(
    int_range 0 3 >>= fun machines ->
    pair (return machines)
      (pair
         (list_size (int_range 0 12) (gen_raw_slice machines))
         (list_size (int_range 0 4) (int_range 0 20))))

let print_raw_schedule (machines, (slices, _)) =
  Printf.sprintf "m=%d [%s]" machines
    (String.concat "; "
       (List.map
          (fun (s : Schedule.slice) ->
            Printf.sprintf "p%d [%h,%h) j%d @%h" s.proc s.t0 s.t1 s.job s.speed)
          slices))

let schedule_outcome f =
  match f () with
  | (s : Schedule.t) ->
    let bits (x : Schedule.slice) =
      ( x.proc,
        Int64.bits_of_float x.t0,
        Int64.bits_of_float x.t1,
        x.job,
        Int64.bits_of_float x.speed )
    in
    Ok (List.map bits (Schedule.slices s), s.rejected, Schedule.length s)
  | exception Invalid_argument m -> Error m

let reference_make ~machines ~rejected slices =
  if machines < 1 then invalid_arg "Schedule.make: machines < 1";
  let exact id = abs id < 1 lsl 53 in
  List.iter
    (fun (s : Schedule.slice) ->
      if not (exact s.proc && s.proc >= 0 && s.proc < machines) then
        invalid_arg
          (Printf.sprintf "Schedule.make: slice processor %.0f out of range"
             (float_of_int s.proc));
      if not (Float.is_finite s.t0 && Float.is_finite s.t1 && s.t0 < s.t1)
      then invalid_arg "Schedule.make: slice must have t0 < t1 (finite)";
      if not (Float.is_finite s.speed) || s.speed < 0.0 then
        invalid_arg "Schedule.make: slice speed must be finite >= 0";
      if not (exact s.job) then
        invalid_arg
          (Printf.sprintf "Schedule.make: slice job id %.0f out of range"
             (float_of_int s.job)))
    slices;
  let kept =
    List.filter (fun (s : Schedule.slice) -> s.speed > 0.0 && s.t1 > s.t0)
      slices
  in
  (kept, List.sort_uniq Int.compare rejected)

let prop_make_matches_list_rule =
  QCheck.Test.make ~name:"make and of_records follow the list rule"
    ~count:500
    (QCheck.make ~print:print_raw_schedule gen_raw_schedule)
    (fun (machines, (slices, rejected)) ->
      let bits (x : Schedule.slice) =
        ( x.proc,
          Int64.bits_of_float x.t0,
          Int64.bits_of_float x.t1,
          x.job,
          Int64.bits_of_float x.speed )
      in
      let expected =
        match reference_make ~machines ~rejected slices with
        | kept, rej -> Ok (List.map bits kept, rej, List.length kept)
        | exception Invalid_argument m -> Error m
      in
      let via_make =
        schedule_outcome (fun () -> Schedule.make ~machines ~rejected slices)
      in
      let via_records =
        schedule_outcome (fun () ->
            let buf =
              Array.make (Schedule.slice_words * List.length slices) 0.0
            in
            List.iteri (Schedule.write_slice buf) slices;
            Schedule.of_records ~machines ~rejected buf (List.length slices))
      in
      let msg = function Ok _ -> "ok" | Error m -> m in
      if via_make <> expected then
        QCheck.Test.fail_reportf "make disagrees with the list rule (%s vs %s)"
          (msg via_make) (msg expected)
      else if via_records <> expected then
        QCheck.Test.fail_reportf
          "of_records disagrees with the list rule (%s vs %s)"
          (msg via_records) (msg expected)
      else true)

(* The list-based validator [Schedule.validate] replaced: a filter and a
   sort per processor and per job, and list membership for the rejected
   and finished ids.  The sorted rewrite must report the same first
   violation with the same message. *)
let reference_validate (inst : Instance.t) (t : Schedule.t) =
  let ( let* ) = Result.bind in
  let tol = Feq.tol_loose in
  let slices = Schedule.slices t in
  let rec all f = function
    | [] -> Ok ()
    | x :: rest ->
      let* () = f x in
      all f rest
  in
  let overlap_free label group =
    let sorted =
      List.sort (fun (a : Schedule.slice) b -> Float.compare a.t0 b.t0) group
    in
    let rec go = function
      | (a : Schedule.slice) :: (b :: _ as rest) ->
        if b.t0 < a.t1 -. tol then
          Error
            (Fmt.str "%s: slices overlap: [%g,%g) and [%g,%g)" label a.t0
               a.t1 b.t0 b.t1)
        else go rest
      | _ -> Ok ()
    in
    go sorted
  in
  let* () =
    if t.machines = inst.machines then Ok ()
    else Error "schedule machine count differs from instance"
  in
  let n = Instance.n_jobs inst in
  let* () =
    all
      (fun (s : Schedule.slice) ->
        if s.job < 0 || s.job >= n then
          Error (Fmt.str "slice refers to unknown job %d" s.job)
        else
          let j = Instance.job inst s.job in
          if s.t0 >= j.release -. tol && s.t1 <= j.deadline +. tol then Ok ()
          else
            Error
              (Fmt.str
                 "job %d processed on [%g,%g) outside its window [%g,%g)"
                 s.job s.t0 s.t1 j.release j.deadline))
      slices
  in
  let* () =
    all
      (fun p ->
        overlap_free (Fmt.str "processor %d" p)
          (List.filter (fun (s : Schedule.slice) -> s.proc = p) slices))
      (List.init t.machines Fun.id)
  in
  let* () =
    all
      (fun id ->
        overlap_free (Fmt.str "job %d" id)
          (List.filter (fun (s : Schedule.slice) -> s.job = id) slices))
      (List.init n Fun.id)
  in
  let work id =
    Ksum.sum_by
      (fun (s : Schedule.slice) ->
        if s.job = id then (s.t1 -. s.t0) *. s.speed else 0.0)
      slices
  in
  all
    (fun id ->
      let j = Instance.job inst id in
      let finished = work id >= j.workload -. (tol *. (1.0 +. j.workload)) in
      if List.mem id t.rejected || finished then Ok ()
      else
        Error
          (Fmt.str "job %d is neither rejected nor finished (work %g/%g)" id
             (work id) j.workload))
    (List.init n Fun.id)

let gen_validate_case =
  let open QCheck.Gen in
  let half k = float_of_int k /. 2.0 in
  int_range 1 3 >>= fun machines ->
  int_range 1 5 >>= fun n ->
  let job id =
    map
      (fun (r, len) ->
        mk_job ~id ~r:(half r) ~d:(half (r + len)) ~w:(half len) ~v:1.0 ())
      (pair (int_range 0 4) (int_range 1 6))
  in
  let sl =
    map
      (fun ((proc, job), (a, len), speed) ->
        slice proc (half a) (half (a + len)) job speed)
      (triple
         (pair (int_range 0 (machines - 1)) (int_range (-1) n))
         (pair (int_range 0 8) (int_range 1 4))
         (oneofl [ 0.5; 1.0; 2.0 ]))
  in
  triple
    (map (fun jobs -> Instance.make ~power:p3 ~machines jobs)
       (flatten_l (List.init n job)))
    (list_size (int_range 0 10) sl)
    (list_size (int_range 0 n) (int_range 0 (n - 1)))

let prop_validate_matches_reference =
  QCheck.Test.make ~name:"validate = list-based reference" ~count:1000
    (QCheck.make gen_validate_case)
    (fun (inst, slices, rejected) ->
      let t = Schedule.make ~machines:inst.machines ~rejected slices in
      let got = Schedule.validate inst t
      and want = reference_validate inst t in
      if got = want then true
      else
        QCheck.Test.fail_reportf "validate %s, reference %s"
          (match got with Ok () -> "Ok" | Error e -> e)
          (match want with Ok () -> "Ok" | Error e -> e))

(* ------------------------------------------------------------------ *)
(* Io                                                                  *)
(* ------------------------------------------------------------------ *)

let test_io_roundtrip () =
  let inst =
    Instance.make ~power:p3 ~machines:3
      [
        mk_job ~id:0 ~r:0.25 ~d:1.75 ~w:2.5 ~v:7.125 ();
        mk_job ~id:1 ~r:1.0 ~d:9.0 ~w:0.125 ~v:Float.infinity ();
      ]
  in
  let inst' = Io.of_string (Io.to_string inst) in
  Alcotest.(check int) "n" (Instance.n_jobs inst) (Instance.n_jobs inst');
  Alcotest.(check int) "machines" inst.machines inst'.machines;
  check_float "alpha" (Power.alpha inst.power) (Power.alpha inst'.power);
  List.iter
    (fun i ->
      let a = Instance.job inst i and b = Instance.job inst' i in
      check_float "release" a.release b.release;
      check_float "deadline" a.deadline b.deadline;
      check_float "workload" a.workload b.workload;
      Alcotest.(check bool) "value" true (a.value = b.value))
    [ 0; 1 ]

let test_io_parse_format () =
  let text =
    "# a comment\n\nalpha 2.5\nmachines 2\njob 0 1 1.5 3.25\njob 0.5 2 1 inf\n"
  in
  let inst = Io.of_string text in
  Alcotest.(check int) "jobs" 2 (Instance.n_jobs inst);
  check_float "value" 3.25 (Instance.job inst 0).value;
  Alcotest.(check bool) "inf value" true
    (Float.equal (Instance.job inst 1).value Float.infinity)

let test_io_errors () =
  let expect_failure name text =
    match Io.of_string text with
    | exception Failure _ -> ()
    | _ -> Alcotest.failf "%s: expected Failure" name
  in
  expect_failure "missing alpha" "machines 1\njob 0 1 1 1\n";
  expect_failure "missing machines" "alpha 2\njob 0 1 1 1\n";
  expect_failure "no jobs" "alpha 2\nmachines 1\n";
  expect_failure "garbage line" "alpha 2\nmachines 1\nxyzzy\n";
  expect_failure "bad float" "alpha 2\nmachines 1\njob 0 1 X 1\n"

let test_io_file_roundtrip () =
  let inst =
    Instance.make ~power:p2 ~machines:1 [ mk_job ~r:0.0 ~d:1.0 ~w:1.0 ~v:2.0 () ]
  in
  let path = Filename.temp_file "speedscale" ".inst" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Io.save path inst;
      let inst' = Io.load path in
      check_float "workload survives disk" 1.0 (Instance.job inst' 0).workload)

(* Garbage for the arrival-format readers: arbitrary printable bytes, or
   lines built from the format's own words and from numbers the field
   checks must refuse, so the line grammar and every check are reached. *)
let gen_garbage =
  let open QCheck.Gen in
  let number =
    oneofl
      [ "nan"; "inf"; "-inf"; "-1"; "0"; "1"; "2"; "3"; "0.5"; "1e308"; "x";
        "1e-320"; "pd" ]
  in
  let line =
    oneof
      [
        map2
          (fun k n -> k ^ " " ^ n)
          (oneofl [ "alpha"; "machines"; "delta"; "engine" ])
          number;
        map
          (fun ns -> String.concat " " ("job" :: ns))
          (list_size (4 -- 5) number);
        map (String.concat " ")
          (list_size (0 -- 6)
             (oneof [ number; oneofl [ "job"; "alpha"; "#" ] ]));
      ]
  in
  (* a well-formed skeleton, so the field checks see the bad numbers *)
  let doc =
    map
      (fun (a, m, jobs) ->
        String.concat "\n"
          (("alpha " ^ a) :: ("machines " ^ m) :: List.map (( ^ ) "job ") jobs))
      (triple number number
         (list_size (1 -- 3)
            (map (String.concat " ") (list_size (return 4) number))))
  in
  oneof
    [
      string_printable;
      map (String.concat "\n") (list_size (0 -- 8) line);
      doc;
    ]

let arb_garbage = QCheck.make ~print:(Printf.sprintf "%S") gen_garbage

(* Feed [text] to the streaming reader through a file, collecting the
   jobs it delivers. *)
let stream_jobs text =
  let path = Filename.temp_file "speedscale" ".stream" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out_bin path in
      output_string oc text;
      close_out oc;
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in ic)
        (fun () ->
          let jobs = ref [] in
          ignore
            (Io.read_stream ic
               ~start:(fun ~line:_ ~power:_ ~machines:_ -> ())
               ~arrive:(fun () ~line:_ j -> jobs := j :: !jobs));
          List.rev !jobs))

(* Every reader of the format refuses bad bytes with a Failure and never
   with any other exception — Invalid_argument from the model's
   constructors included. *)
let prop_io_fuzz_no_crash =
  QCheck.Test.make ~name:"Io.of_string total on garbage" ~count:300
    arb_garbage (fun s ->
      match Io.of_string s with _ -> true | exception Failure _ -> true)

let prop_stream_fuzz_no_crash =
  QCheck.Test.make ~name:"Io.read_stream total on garbage" ~count:300
    arb_garbage (fun s ->
      match stream_jobs s with _ -> true | exception Failure _ -> true)

let prop_restore_fuzz_no_crash =
  QCheck.Test.make ~name:"Online.restore total on garbage" ~count:300
    arb_garbage (fun s ->
      match Speedscale_engine.Online.restore ("online-snapshot v1\n" ^ s) with
      | _ -> true
      | exception Failure _ -> true)

(* Checkpoint manifests.  A fixture directory holds three shard files of
   a checkpoint cut at seq 7, plus a file in a subdirectory and one in
   the parent directory, each with a known digest.  Every generated
   manifest has exactly one fault; a path-like shard name points at a
   real file with the right digest, so only the name check can refuse
   it. *)
module Checkpoint = Speedscale_service.Checkpoint

let ckpt_fixture =
  lazy
    (let root = Filename.temp_file "speedscale" ".ckpt" in
     Sys.remove root;
     let dir = Filename.concat root "ck" in
     let sub = Filename.concat dir "sub" in
     List.iter (fun d -> Sys.mkdir d 0o755) [ root; dir; sub ];
     let write path text =
       let oc = open_out_bin path in
       output_string oc text;
       close_out oc
     in
     for i = 0 to 2 do
       write
         (Filename.concat dir (Printf.sprintf "ckpt-7-shard-%d.snap" i))
         (Printf.sprintf "snapshot %d\n" i)
     done;
     write (Filename.concat sub "x.snap") "snapshot 0\n";
     write (Filename.concat root "outside.snap") "snapshot 0\n";
     at_exit (fun () ->
         ignore (Sys.command ("rm -rf " ^ Filename.quote root)));
     dir)

let gen_manifest =
  let open QCheck.Gen in
  let digest i =
    Digest.to_hex (Digest.string (Printf.sprintf "snapshot %d\n" i))
  in
  let shard_line ?index ?file ?digest_of i =
    Printf.sprintf "shard %s %s %s"
      (Option.value index ~default:(string_of_int i))
      (Option.value file ~default:(Printf.sprintf "ckpt-7-shard-%d.snap" i))
      (digest (Option.value digest_of ~default:i))
  in
  let bad_int =
    oneofl [ "x"; "1.5"; "nan"; "1e3"; "99999999999999999999"; "--1" ]
  in
  let header k =
    [ "engine pd"; "shard-fn id-mix-v1"; Printf.sprintf "shards %d" k;
      "seq 7" ]
  in
  (* the header and shard lines of a k-shard manifest with one fault *)
  let faulty k =
    let shards = List.init k (fun i -> shard_line i) in
    let set key v =
      List.map
        (fun l ->
          match String.split_on_char ' ' l with
          | [ key'; _ ] when key' = key -> key ^ " " ^ v
          | _ -> l)
        (header k)
      @ shards
    in
    let replace_shard i line =
      header k @ List.mapi (fun j l -> if j = i then line else l) shards
    in
    let pick = int_bound (k - 1) in
    oneof
      [
        map (set "shards") (oneof [ bad_int; oneofl [ "0"; "-1" ] ]);
        map (set "seq") (oneof [ bad_int; oneofl [ "-1"; "-7" ] ]);
        map2
          (fun i index -> replace_shard i (shard_line ~index i))
          pick
          (oneof [ bad_int; oneofl [ "-1"; "3" ] ]);
        (* a missing or a duplicated shard line *)
        map (fun i -> header k @ List.filteri (fun j _ -> j <> i) shards) pick;
        map (fun i -> header k @ shards @ [ shard_line i ]) pick;
        (* a repeated or a missing header line *)
        map (fun h -> header k @ [ h ] @ shards) (oneofl (header k));
        map (fun h -> List.filter (( <> ) h) (header k) @ shards)
          (oneofl (header k));
        (* a shard file that is not a plain name in the directory *)
        map
          (fun file -> replace_shard 0 (shard_line ~file 0))
          (oneofl
             [ "../outside.snap"; "sub/x.snap"; "./ckpt-7-shard-0.snap"; ".";
               ".." ]);
        map (fun i -> replace_shard i (shard_line ~digest_of:(i + 1) i)) pick;
      ]
  in
  oneof
    [
      map
        (fun lines -> String.concat "\n" ("service-manifest v1" :: lines))
        (int_range 1 3 >>= faulty);
      (* the garbage words never include "shards", so a correct first
         line alone cannot make it load *)
      map (fun g -> "service-manifest v1\n" ^ g) gen_garbage;
      gen_garbage;
    ]

let prop_checkpoint_fuzz_no_crash =
  QCheck.Test.make ~name:"Checkpoint.load total on garbage" ~count:300
    (QCheck.make ~print:(Printf.sprintf "%S") gen_manifest)
    (fun text ->
      let dir = Lazy.force ckpt_fixture in
      let manifest = Filename.concat dir Checkpoint.manifest_name in
      let oc = open_out_bin manifest in
      output_string oc text;
      close_out oc;
      match Checkpoint.load ~manifest with
      | _ -> QCheck.Test.fail_report "loaded a manifest with a fault"
      | exception Failure m ->
        String.length m > 17 && String.sub m 0 17 = "Checkpoint.load: ")

(* The faults the fuzz found in Checkpoint.load, each pinned with its
   diagnostic: all three loaded without complaint before. *)
let test_checkpoint_found_faults () =
  let dir = Lazy.force ckpt_fixture in
  let manifest = Filename.concat dir Checkpoint.manifest_name in
  let shard0 file =
    Printf.sprintf "shard 0 %s %s" file
      (Digest.to_hex (Digest.string "snapshot 0\n"))
  in
  List.iter
    (fun (name, lines, marker) ->
      let oc = open_out_bin manifest in
      output_string oc
        (String.concat "\n"
           ("service-manifest v1" :: "engine pd" :: "shard-fn id-mix-v1"
          :: "shards 1" :: lines));
      close_out oc;
      match Checkpoint.load ~manifest with
      | _ -> Alcotest.failf "%s: loaded" name
      | exception Failure m ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: %S mentions %S" name m marker)
          true
          (let n = String.length m and k = String.length marker in
           let rec go i =
             i + k <= n && (String.sub m i k = marker || go (i + 1))
           in
           go 0))
    [
      ("negative seq", [ "seq -7"; shard0 "ckpt-7-shard-0.snap" ],
       "seq must be >= 0");
      ("repeated header", [ "seq 7"; "seq 8"; shard0 "ckpt-7-shard-0.snap" ],
       "duplicate 'seq' line");
      ("file in the parent directory", [ "seq 7"; shard0 "../outside.snap" ],
       "not a plain file name");
      ("file in a subdirectory", [ "seq 7"; shard0 "sub/x.snap" ],
       "not a plain file name");
    ]

let prop_io_roundtrip_random =
  QCheck.Test.make ~name:"Io roundtrip on random instances" ~count:100
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(1 -- 8)
           (quad
              (make Gen.(float_range 0.0 9.0))
              (make Gen.(float_range 0.1 4.0))
              (make Gen.(float_range 0.1 3.0))
              (make Gen.(float_range 0.0 20.0)))))
    (fun (machines, jobs) ->
      let inst =
        Instance.make ~power:p2 ~machines
          (List.mapi
             (fun i (r, span, w, v) ->
               Job.make ~id:i ~release:r ~deadline:(r +. span) ~workload:w
                 ~value:v)
             jobs)
      in
      let inst' = Io.of_string (Io.to_string inst) in
      Instance.n_jobs inst = Instance.n_jobs inst'
      && List.for_all
           (fun i ->
             let a = Instance.job inst i and b = Instance.job inst' i in
             a.release = b.release && a.deadline = b.deadline
             && a.workload = b.workload && a.value = b.value)
           (List.init (Instance.n_jobs inst) Fun.id))

(* The batch and the streaming reader are one grammar: on a rendered
   instance they deliver bit-identical jobs in the same order. *)
let prop_stream_agrees_with_of_string =
  QCheck.Test.make ~name:"read_stream = of_string on rendered instances"
    ~count:100
    QCheck.(
      pair (int_range 1 4)
        (list_of_size Gen.(1 -- 8)
           (quad
              (make Gen.(float_range 0.0 1e6))
              (make Gen.(float_range 1e-6 4.0))
              (make Gen.(float_range 1e-6 3.0))
              (make
                 Gen.(oneof [ float_range 0.0 20.0; return Float.infinity ])))))
    (fun (machines, jobs) ->
      let inst =
        Instance.make ~power:p3 ~machines
          (List.mapi
             (fun i (r, span, w, v) ->
               Job.make ~id:i ~release:r ~deadline:(r +. span) ~workload:w
                 ~value:v)
             jobs)
      in
      let text = Io.to_string inst in
      let same (a : Job.t) (b : Job.t) =
        a.id = b.id && Float.equal a.release b.release
        && Float.equal a.deadline b.deadline
        && Float.equal a.workload b.workload
        && Float.equal a.value b.value
      in
      List.equal same (Array.to_list (Io.of_string text).jobs)
        (stream_jobs text))

let prop_instance_with_values_preserves_shape =
  QCheck.Test.make ~name:"with_values keeps windows and workloads" ~count:100
    QCheck.(
      list_of_size Gen.(1 -- 8)
        (triple
           (make Gen.(float_range 0.0 9.0))
           (make Gen.(float_range 0.1 4.0))
           (make Gen.(float_range 0.1 3.0))))
    (fun jobs ->
      let inst =
        Instance.make ~power:p2 ~machines:2
          (List.mapi
             (fun i (r, span, w) ->
               Job.make ~id:i ~release:r ~deadline:(r +. span) ~workload:w
                 ~value:1.0)
             jobs)
      in
      let inst' = Instance.with_values inst (fun j -> 2.0 *. j.workload) in
      List.for_all
        (fun i ->
          let a = Instance.job inst i and b = Instance.job inst' i in
          Float.equal a.release b.release
          && Float.equal a.workload b.workload
          && Float.equal b.value (2.0 *. b.workload))
        (List.init (Instance.n_jobs inst) Fun.id))

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "model"
    [
      ( "power",
        [
          Alcotest.test_case "basics" `Quick test_power_basics;
          Alcotest.test_case "inverse" `Quick test_power_inverse;
          Alcotest.test_case "constants" `Quick test_power_constants;
          Alcotest.test_case "invalid" `Quick test_power_invalid;
          q prop_power_convexity;
        ] );
      ( "job",
        [
          Alcotest.test_case "accessors" `Quick test_job_accessors;
          Alcotest.test_case "validation" `Quick test_job_validation;
          Alcotest.test_case "infinite value" `Quick test_job_infinite_value;
        ] );
      ( "instance",
        [
          Alcotest.test_case "sorting" `Quick test_instance_sorting;
          Alcotest.test_case "values" `Quick test_instance_values;
          Alcotest.test_case "restrict" `Quick test_instance_restrict;
        ] );
      ( "timeline",
        [
          Alcotest.test_case "of_jobs" `Quick test_timeline_of_jobs;
          Alcotest.test_case "covering" `Quick test_timeline_covering;
          Alcotest.test_case "refine" `Quick test_timeline_refine;
          Alcotest.test_case "index_at" `Quick test_timeline_index_at;
          q prop_timeline_refine_preserves_measure;
        ] );
      ( "io",
        [
          Alcotest.test_case "roundtrip" `Quick test_io_roundtrip;
          Alcotest.test_case "parse format" `Quick test_io_parse_format;
          Alcotest.test_case "errors" `Quick test_io_errors;
          Alcotest.test_case "file roundtrip" `Quick test_io_file_roundtrip;
          q prop_io_fuzz_no_crash;
          q prop_io_roundtrip_random;
          q prop_instance_with_values_preserves_shape;
          q prop_stream_fuzz_no_crash;
          q prop_restore_fuzz_no_crash;
          q prop_stream_agrees_with_of_string;
          q prop_checkpoint_fuzz_no_crash;
          Alcotest.test_case "Checkpoint.load found faults" `Quick
            test_checkpoint_found_faults;
        ] );
      ( "schedule",
        [
          Alcotest.test_case "energy and cost" `Quick test_schedule_energy_and_cost;
          Alcotest.test_case "lost value" `Quick test_schedule_lost_value;
          Alcotest.test_case "validate ok" `Quick test_schedule_validate_ok;
          Alcotest.test_case "overlap" `Quick test_schedule_validate_overlap;
          Alcotest.test_case "window" `Quick test_schedule_validate_window;
          Alcotest.test_case "unfinished" `Quick test_schedule_validate_unfinished;
          Alcotest.test_case "job parallelism" `Quick test_schedule_job_parallelism;
          Alcotest.test_case "profiles" `Quick test_schedule_profiles;
          Alcotest.test_case "speed_at" `Quick test_schedule_speed_at;
          Alcotest.test_case "null slices" `Quick test_schedule_drops_null_slices;
          Alcotest.test_case "exact ids" `Quick test_schedule_exact_ids;
          q prop_make_matches_list_rule;
          q prop_validate_matches_reference;
        ] );
    ]
