(* Tests for the max-flow substrate and the scheduling feasibility /
   min-speed-cap solver built on it. *)

open Speedscale_model
open Speedscale_flow

let check_float = Alcotest.(check (float 1e-9))
let p2 = Power.make 2.0

(* ------------------------------------------------------------------ *)
(* Dinic                                                               *)
(* ------------------------------------------------------------------ *)

let test_dinic_single_edge () =
  let t = Dinic.create ~n_nodes:2 ~source:0 ~sink:1 in
  Dinic.add_edge t ~src:0 ~dst:1 ~capacity:3.5;
  check_float "trivial" 3.5 (Dinic.max_flow t);
  check_float "edge flow" 3.5 (Dinic.flow_on t ~src:0 ~dst:1)

let test_dinic_bottleneck_path () =
  (* 0 -> 2 -> 3 -> 1 with capacities 5, 2, 9: flow 2 *)
  let t = Dinic.create ~n_nodes:4 ~source:0 ~sink:1 in
  Dinic.add_edge t ~src:0 ~dst:2 ~capacity:5.0;
  Dinic.add_edge t ~src:2 ~dst:3 ~capacity:2.0;
  Dinic.add_edge t ~src:3 ~dst:1 ~capacity:9.0;
  check_float "bottleneck" 2.0 (Dinic.max_flow t)

let test_dinic_classic_diamond () =
  (* the classic network where augmenting through the cross edge is needed *)
  let t = Dinic.create ~n_nodes:4 ~source:0 ~sink:3 in
  Dinic.add_edge t ~src:0 ~dst:1 ~capacity:10.0;
  Dinic.add_edge t ~src:0 ~dst:2 ~capacity:10.0;
  Dinic.add_edge t ~src:1 ~dst:2 ~capacity:1.0;
  Dinic.add_edge t ~src:1 ~dst:3 ~capacity:10.0;
  Dinic.add_edge t ~src:2 ~dst:3 ~capacity:10.0;
  check_float "diamond" 20.0 (Dinic.max_flow t)

let test_dinic_disconnected () =
  let t = Dinic.create ~n_nodes:3 ~source:0 ~sink:2 in
  Dinic.add_edge t ~src:0 ~dst:1 ~capacity:4.0;
  check_float "no path" 0.0 (Dinic.max_flow t)

let test_dinic_validation () =
  Alcotest.check_raises "source = sink"
    (Invalid_argument "Dinic.create: bad node layout") (fun () ->
      ignore (Dinic.create ~n_nodes:3 ~source:1 ~sink:1));
  let t = Dinic.create ~n_nodes:2 ~source:0 ~sink:1 in
  Alcotest.check_raises "negative capacity"
    (Invalid_argument "Dinic.add_edge: negative capacity") (fun () ->
      Dinic.add_edge t ~src:0 ~dst:1 ~capacity:(-1.0))

(* max-flow = min-cut spot check on random bipartite graphs: flow is
   bounded by both the source-side and sink-side capacity sums *)
let prop_dinic_bounded_by_cuts =
  QCheck.Test.make ~name:"flow bounded by trivial cuts" ~count:200
    QCheck.(
      list_of_size Gen.(1 -- 12)
        (pair (int_bound 3) (make Gen.(float_range 0.0 5.0))))
    (fun pairs ->
      (* bipartite: source(0) -> left(2+i) -> right(6+j) -> sink(1) *)
      let t = Dinic.create ~n_nodes:12 ~source:0 ~sink:1 in
      let src_cap = Array.make 4 0.0 in
      List.iteri
        (fun i (j, c) ->
          let left = 2 + (i mod 4) and right = 6 + j in
          Dinic.add_edge t ~src:left ~dst:right ~capacity:c;
          src_cap.(i mod 4) <- src_cap.(i mod 4) +. c)
        pairs;
      for i = 0 to 3 do
        Dinic.add_edge t ~src:0 ~dst:(2 + i) ~capacity:src_cap.(i)
      done;
      for j = 0 to 3 do
        Dinic.add_edge t ~src:(6 + j) ~dst:1 ~capacity:2.5
      done;
      let f = Dinic.max_flow t in
      let total = Array.fold_left ( +. ) 0.0 src_cap in
      f <= total +. 1e-9 && f <= 10.0 +. 1e-9 && f >= -1e-9)

(* ------------------------------------------------------------------ *)
(* Feasibility                                                         *)
(* ------------------------------------------------------------------ *)

let mk_job ~id ~r ~d ~w =
  Job.make ~id ~release:r ~deadline:d ~workload:w ~value:Float.infinity

let test_feasibility_single_job () =
  let inst =
    Instance.make ~power:p2 ~machines:1 [ mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:4.0 ]
  in
  Alcotest.(check bool) "cap 2 feasible" true
    (Feasibility.feasible inst ~speed_cap:2.0);
  Alcotest.(check bool) "cap 1.9 infeasible" false
    (Feasibility.feasible inst ~speed_cap:1.9);
  check_float "min cap = density" 2.0 (Feasibility.min_speed_cap inst)

let test_feasibility_parallelism_limit () =
  (* one job cannot use two processors: m = 2 does not halve its cap *)
  let inst =
    Instance.make ~power:p2 ~machines:2 [ mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:3.0 ]
  in
  check_float "still density 3" 3.0 (Feasibility.min_speed_cap inst)

let test_feasibility_two_jobs_one_machine () =
  (* both jobs in [0,1]: cap must cover the sum *)
  let inst =
    Instance.make ~power:p2 ~machines:1
      [ mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0; mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ]
  in
  check_float "sum density" 3.0 (Feasibility.min_speed_cap inst);
  (* two machines split them: cap = max density = 2 *)
  let inst2 =
    Instance.make ~power:p2 ~machines:2
      [ mk_job ~id:0 ~r:0.0 ~d:1.0 ~w:1.0; mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:2.0 ]
  in
  check_float "max density" 2.0 (Feasibility.min_speed_cap inst2)

let test_feasibility_work_assignment_realizes () =
  let inst =
    Instance.make ~power:p2 ~machines:2
      [
        mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:2.0;
        mk_job ~id:1 ~r:0.0 ~d:1.0 ~w:1.5;
        mk_job ~id:2 ~r:1.0 ~d:3.0 ~w:1.0;
      ]
  in
  let cap = Feasibility.min_speed_cap inst *. 1.001 in
  match Feasibility.work_assignment inst ~speed_cap:cap with
  | None -> Alcotest.fail "assignment should exist at 1.001 * min cap"
  | Some (loads, tl) ->
    (* per-job totals match workloads *)
    let per_job = Hashtbl.create 8 in
    Array.iter
      (List.iter (fun (j, f) ->
           Hashtbl.replace per_job j
             (f +. Option.value ~default:0.0 (Hashtbl.find_opt per_job j))))
      loads;
    List.iter
      (fun j ->
        Alcotest.(check (float 1e-6))
          (Printf.sprintf "job %d work" j)
          (Instance.job inst j).workload
          (Option.value ~default:0.0 (Hashtbl.find_opt per_job j)))
      [ 0; 1; 2 ];
    (* no interval exceeds per-job or total capacity *)
    Array.iteri
      (fun k pairs ->
        let lk = Timeline.length tl k in
        let total = List.fold_left (fun a (_, f) -> a +. f) 0.0 pairs in
        Alcotest.(check bool) "interval capacity" true
          (total <= (2.0 *. cap *. lk) +. 1e-6);
        List.iter
          (fun (_, f) ->
            Alcotest.(check bool) "job parallelism" true
              (f <= (cap *. lk) +. 1e-6))
          pairs)
      loads

let prop_flow_schedule_respects_cap =
  QCheck.Test.make
    ~name:"flow-realized schedule: feasible and every speed <= cap"
    ~count:60
    QCheck.(
      pair
        (list_of_size Gen.(1 -- 6)
           (triple
              (make Gen.(float_range 0.0 5.0))
              (make Gen.(float_range 0.3 3.0))
              (make Gen.(float_range 0.2 2.0))))
        (int_range 1 3))
    (fun (jobs, machines) ->
      let inst =
        Instance.make ~power:p2 ~machines
          (List.mapi
             (fun i (r, span, w) -> mk_job ~id:i ~r ~d:(r +. span) ~w)
             jobs)
      in
      let cap = Feasibility.min_speed_cap inst *. 1.0001 in
      match Feasibility.schedule inst ~speed_cap:cap with
      | None -> QCheck.Test.fail_reportf "no schedule at 1.0001 * min cap"
      | Some s ->
        (match Schedule.validate inst s with
        | Ok () -> ()
        | Error e -> QCheck.Test.fail_reportf "infeasible: %s" e);
        List.for_all
          (fun (sl : Schedule.slice) -> sl.speed <= cap *. (1.0 +. 1e-6))
          (Schedule.slices s))

(* min cap on a single machine equals the YDS maximum density *)
let gen_jobs =
  QCheck.Gen.(
    let* n = 1 -- 6 in
    list_size (return n)
      (let* r = float_range 0.0 5.0 in
       let* span = float_range 0.3 3.0 in
       let* w = float_range 0.2 2.0 in
       return (r, r +. span, w)))

let arb_jobs =
  QCheck.make gen_jobs ~print:(fun jobs ->
      String.concat ";"
        (List.map (fun (r, d, w) -> Printf.sprintf "(%g,%g,%g)" r d w) jobs))

let prop_min_cap_matches_yds_peak =
  QCheck.Test.make ~name:"min speed cap (m=1) = YDS peak density" ~count:80
    arb_jobs (fun jobs ->
      let inst =
        Instance.make ~power:p2 ~machines:1
          (List.mapi (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w) jobs)
      in
      let cap = Feasibility.min_speed_cap inst in
      let peak =
        List.fold_left
          (fun acc (r : Speedscale_single.Yds.round) -> Float.max acc r.density)
          0.0
          (Speedscale_single.Yds.rounds (Array.to_list inst.jobs))
      in
      Float.abs (cap -. peak) <= 1e-6 *. (1.0 +. peak))

let prop_min_cap_monotone_in_machines =
  QCheck.Test.make ~name:"min speed cap never increases with more machines"
    ~count:80 arb_jobs (fun jobs ->
      let cap m =
        Feasibility.min_speed_cap
          (Instance.make ~power:p2 ~machines:m
             (List.mapi (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w) jobs))
      in
      let c1 = cap 1 and c2 = cap 2 and c4 = cap 4 in
      c1 >= c2 -. 1e-9 && c2 >= c4 -. 1e-9)

(* Scaling every workload by c >= 1 scales all flow capacities linearly
   while the interval structure (job windows) is unchanged, so the minimum
   feasible cap is monotone and in fact exactly linear in the scale. *)
let prop_min_cap_monotone_in_workload_scale =
  QCheck.Test.make
    ~name:"min speed cap scales linearly with workload" ~count:60
    QCheck.(pair arb_jobs (float_range 1.0 4.0))
    (fun (jobs, c) ->
      let mk scale =
        Instance.make ~power:p2 ~machines:2
          (List.mapi
             (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w:(w *. scale))
             jobs)
      in
      let cap = Feasibility.min_speed_cap (mk 1.0) in
      let cap' = Feasibility.min_speed_cap (mk c) in
      cap' >= cap *. (1.0 -. 1e-6)
      && Float.abs (cap' -. (c *. cap)) <= 1e-5 *. (1.0 +. (c *. cap)))

let prop_pd_schedule_respects_feasibility =
  QCheck.Test.make
    ~name:"PD's max speed is at least the min feasible cap" ~count:50
    arb_jobs (fun jobs ->
      let inst =
        Instance.make ~power:p2 ~machines:2
          (List.mapi (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w) jobs)
      in
      let r = Speedscale_core.Pd.run inst in
      let st = Speedscale_metrics.Structure.of_schedule r.schedule in
      st.max_speed >= Feasibility.min_speed_cap inst -. 1e-6)

(* ------------------------------------------------------------------ *)
(* Migratory — exact optimum by flow peeling                            *)
(* ------------------------------------------------------------------ *)

let inst_of ~machines jobs =
  Instance.make ~power:p2 ~machines
    (List.mapi (fun i (r, d, w) -> mk_job ~id:i ~r ~d ~w) jobs)

(* On one machine the migratory optimum is YDS, which we have in exact
   closed form — the strongest available oracle for the peeling. *)
let prop_migratory_matches_yds_single =
  QCheck.Test.make ~name:"migratory optimum (m=1) = YDS energy" ~count:60
    arb_jobs (fun jobs ->
      let inst = inst_of ~machines:1 jobs in
      let r = Migratory.solve inst in
      let yds =
        Speedscale_single.Yds.energy p2 (Array.to_list inst.jobs)
      in
      if Float.abs (r.energy -. yds) > 1e-6 *. (1.0 +. yds) then
        QCheck.Test.fail_reportf "peeling %.12g vs YDS %.12g" r.energy yds
      else true)

let prop_migratory_schedule_valid_and_certified =
  QCheck.Test.make
    ~name:"migratory schedule validates; certificate feasible & pinched"
    ~count:60
    QCheck.(pair arb_jobs (QCheck.make QCheck.Gen.(oneofl [ 1; 2; 3 ])))
    (fun (jobs, machines) ->
      let inst = inst_of ~machines jobs in
      let r = Migratory.solve inst in
      (match Schedule.validate inst r.schedule with
      | Ok () -> ()
      | Error e -> QCheck.Test.fail_reportf "invalid schedule: %s" e);
      let energy = (Schedule.cost inst r.schedule).energy in
      if Float.abs (energy -. r.energy) > 1e-6 *. (1.0 +. r.energy) then
        QCheck.Test.fail_reportf "realized %.12g vs claimed %.12g" energy
          r.energy;
      let c = Migratory.certify inst r in
      if not c.feasible then QCheck.Test.fail_reportf "certificate infeasible"
      else if not c.pinched then
        QCheck.Test.fail_reportf "certificate not pinched: a level is slack"
      else true)

(* Mopt converges to the same optimum numerically: the two independent
   solvers (projected gradient vs flow peeling) must agree. *)
let prop_migratory_matches_mopt =
  QCheck.Test.make ~name:"migratory optimum = Mopt (PGD) energy" ~count:25
    arb_jobs (fun jobs ->
      let inst = inst_of ~machines:2 jobs in
      let peel = Migratory.energy inst in
      let pgd = Speedscale_multi.Mopt.energy inst in
      if Float.abs (peel -. pgd) > 1e-4 *. (1.0 +. pgd) then
        QCheck.Test.fail_reportf "peeling %.12g vs PGD %.12g" peel pgd
      else true)

(* A near-tie the random property once hit: job 2's own density
   (1.625427) sits 2e-5 above the density of jobs 1 and 2 together, so
   job 1 has slack below the freeze probe's perturbation at the first
   level.  Freezing it there cost 2e-5 of relative energy. *)
let test_migratory_near_tie_matches_yds () =
  let inst =
    inst_of ~machines:1
      [
        (3.72515, 6.56813, 1.578);
        (0.769185, 2.43553, 1.74051);
        (1.84004, 3.02072, 1.91912);
      ]
  in
  let r = Migratory.solve inst in
  let yds = Speedscale_single.Yds.energy p2 (Array.to_list inst.jobs) in
  Alcotest.(check (float (1e-8 *. (1.0 +. yds)))) "energy = YDS" yds r.energy;
  let c = Migratory.certify inst r in
  Alcotest.(check bool) "certified" true (c.feasible && c.pinched)

let test_migratory_single_job () =
  (* one job on two machines: runs at its density on one machine *)
  let inst = Instance.make ~power:p2 ~machines:2 [ mk_job ~id:0 ~r:0.0 ~d:2.0 ~w:4.0 ] in
  let r = Migratory.solve inst in
  Alcotest.(check (float 1e-6)) "speed = density" 2.0 r.speeds.(0);
  (* energy = (w/s) * s^alpha = 2 * 4 = 8 *)
  Alcotest.(check (float 1e-5)) "energy" 8.0 r.energy;
  let c = Migratory.certify inst r in
  Alcotest.(check bool) "certified" true (c.feasible && c.pinched)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "flow"
    [
      ( "dinic",
        [
          Alcotest.test_case "single edge" `Quick test_dinic_single_edge;
          Alcotest.test_case "bottleneck" `Quick test_dinic_bottleneck_path;
          Alcotest.test_case "diamond" `Quick test_dinic_classic_diamond;
          Alcotest.test_case "disconnected" `Quick test_dinic_disconnected;
          Alcotest.test_case "validation" `Quick test_dinic_validation;
          q prop_dinic_bounded_by_cuts;
        ] );
      ( "feasibility",
        [
          Alcotest.test_case "single job" `Quick test_feasibility_single_job;
          Alcotest.test_case "parallelism limit" `Quick
            test_feasibility_parallelism_limit;
          Alcotest.test_case "two jobs" `Quick test_feasibility_two_jobs_one_machine;
          Alcotest.test_case "work assignment" `Quick
            test_feasibility_work_assignment_realizes;
          q prop_flow_schedule_respects_cap;
          q prop_min_cap_matches_yds_peak;
          q prop_min_cap_monotone_in_machines;
          q prop_min_cap_monotone_in_workload_scale;
          q prop_pd_schedule_respects_feasibility;
        ] );
      ( "migratory",
        [
          Alcotest.test_case "single job" `Quick test_migratory_single_job;
          Alcotest.test_case "near-tie levels = YDS" `Quick
            test_migratory_near_tie_matches_yds;
          q prop_migratory_matches_yds_single;
          q prop_migratory_schedule_valid_and_certified;
          q prop_migratory_matches_mopt;
        ] );
    ]
