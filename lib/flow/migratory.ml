open Speedscale_util
open Speedscale_model

(* Time-unit flow network: job [j] needs [times.(j)] processing time
   (workload over its assigned speed), an interval offers [l_k] per
   machine and [m * l_k] overall.  Node layout mirrors [Feasibility]:
   0 = source, 1 = sink, 2..2+n-1 = jobs, 2+n.. = intervals. *)
let build_network (inst : Instance.t) tl ~times =
  let n = Instance.n_jobs inst in
  let nk = Timeline.n_intervals tl in
  let source = 0 and sink = 1 in
  let job_node j = 2 + j in
  let interval_node k = 2 + n + k in
  let net = Dinic.create ~n_nodes:(2 + n + nk) ~source ~sink in
  for j = 0 to n - 1 do
    Dinic.add_edge net ~src:source ~dst:(job_node j) ~capacity:times.(j)
  done;
  for k = 0 to nk - 1 do
    let lo, hi = Timeline.bounds tl k in
    let lk = hi -. lo in
    Dinic.add_edge net ~src:(interval_node k) ~dst:sink
      ~capacity:(float_of_int inst.machines *. lk);
    for j = 0 to n - 1 do
      if Job.covers (Instance.job inst j) ~lo ~hi then
        Dinic.add_edge net ~src:(job_node j) ~dst:(interval_node k)
          ~capacity:lk
    done
  done;
  (net, job_node, interval_node)

let feasible_times ?(tol = Feq.tol_snap) (inst : Instance.t) tl ~times =
  let net, _, _ = build_network inst tl ~times in
  let flow = Dinic.max_flow net in
  let needed = Ksum.sum_array times in
  flow >= needed -. (tol *. (1.0 +. needed))

let times_at (inst : Instance.t) speeds ~free_level =
  Array.mapi
    (fun j speed ->
      let w = (Instance.job inst j).workload in
      match speed with Some s -> w /. s | None -> w /. free_level)
    speeds

(* Minimal level [s] at which the still-free jobs fit alongside the
   frozen ones, by bisection on the monotone feasibility predicate. *)
let min_free_level (inst : Instance.t) tl speeds =
  let f s =
    if feasible_times inst tl ~times:(times_at inst speeds ~free_level:s)
    then 1.0
    else 0.0
  in
  (* certified lower bound: no free job can run slower than its density *)
  let density_lb = ref 0.0 in
  Array.iteri
    (fun j job ->
      if speeds.(j) = None then
        density_lb := Float.max !density_lb (Job.density job))
    inst.jobs;
  let density_lb = !density_lb in
  let lo = Float.max density_lb Feq.tol_snap in
  let level =
    if Float.equal (f lo) 1.0 then lo
    else begin
      let hi = Bisect.grow_bracket ~f ~target:1.0 ~lo:0.0 ~init:lo () in
      Bisect.monotone_inverse ~tol:Feq.tol_snap ~f ~target:1.0 ~lo ~hi ()
    end
  in
  (* The bisected level is feasible only up to the round's own relative
     tolerance — a deficit that is harmless now (total demand is large)
     but poisonous later, when the frozen jobs' demand is compared
     against a much smaller total.  Certify the level against the far
     stricter guard tolerance, nudging up geometrically: any residual
     deficit is then below every later round's acceptance margin. *)
  let strictly_feasible s =
    feasible_times ~tol:Feq.tol_guard inst tl
      ~times:(times_at inst speeds ~free_level:s)
  in
  let rec certify level step budget =
    if strictly_feasible level then level
    else if budget = 0 then
      failwith "Migratory.solve: could not certify a feasible level"
    else certify (level *. (1.0 +. step)) (2.0 *. step) (budget - 1)
  in
  certify level (16.0 *. Feq.tol_snap) 24

(* Probe factor of {!certify}'s pinched test: slowing a whole level by
   it must break feasibility. *)
let theta = 100.0 *. Feq.tol_loose

(* The free jobs that must run at exactly [level]: the union of the job
   sets the flow pinches there.  Just below the level exactly that union
   falls short, so it is the free part of the source side of a minimum
   cut (ABKL's criterion).  Slowing one job at a time by a fixed probe
   factor would also freeze every job whose own optimal level lies
   within that factor below [level].  The probe starts just past the
   level's certification slack and backs off geometrically until the
   network is short. *)
let critical_jobs (inst : Instance.t) tl speeds ~level =
  let free =
    List.filter
      (fun j -> speeds.(j) = None)
      (List.init (Instance.n_jobs inst) Fun.id)
  in
  let rec probe gap budget =
    let times = times_at inst speeds ~free_level:(level *. (1.0 -. gap)) in
    let net, job_node, _ = build_network inst tl ~times in
    ignore (Dinic.max_flow net);
    let side = Dinic.source_side net in
    match List.filter (fun j -> side.(job_node j)) free with
    | [] when budget = 0 ->
      failwith "Migratory.solve: no job falls short below the level"
    | [] -> probe (2.0 *. gap) (budget - 1)
    | critical -> critical
  in
  probe (16.0 *. Feq.tol_snap) 24

type result = {
  energy : float;
  speeds : float array;
  levels : float list;
  schedule : Schedule.t;
}

let solve (inst : Instance.t) =
  let n = Instance.n_jobs inst in
  if n = 0 then
    {
      energy = 0.0;
      speeds = [||];
      levels = [];
      schedule = Schedule.make ~machines:inst.machines ~rejected:[] [];
    }
  else begin
    let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
    let speeds = Array.make n None in
    let levels = ref [] in
    let remaining = ref n in
    while !remaining > 0 do
      let level = min_free_level inst tl speeds in
      levels := level :: !levels;
      List.iter
        (fun j ->
          speeds.(j) <- Some level;
          decr remaining)
        (critical_jobs inst tl speeds ~level)
    done;
    let speeds =
      Array.map
        (function
          | Some s -> s
          | None -> failwith "Migratory.solve: job left without a level")
        speeds
    in
    let energy =
      Ksum.sum
        (List.init n (fun j ->
             let w = (Instance.job inst j).workload in
             Power.energy inst.power ~speed:speeds.(j)
               ~duration:(w /. speeds.(j))))
    in
    (* realize: one more flow at the final times, then hand each
       interval's work to Chen (same realization path as Feasibility) *)
    let times = Array.mapi (fun j s -> (Instance.job inst j).workload /. s) speeds in
    let net, job_node, interval_node = build_network inst tl ~times in
    ignore (Dinic.max_flow net);
    let slices = ref [] in
    for k = 0 to Timeline.n_intervals tl - 1 do
      let lo, hi = Timeline.bounds tl k in
      let pairs = ref [] in
      for j = 0 to n - 1 do
        if Job.covers (Instance.job inst j) ~lo ~hi then begin
          let t = Dinic.flow_on net ~src:(job_node j) ~dst:(interval_node k) in
          let load = t *. speeds.(j) in
          if load > Feq.tol_guard then pairs := (j, load) :: !pairs
        end
      done;
      if !pairs <> [] then begin
        let chen =
          Speedscale_chen.Chen.build ~machines:inst.machines ~length:(hi -. lo)
            !pairs
        in
        slices := Speedscale_chen.Chen.slices chen ~t0:lo ~t1:hi @ !slices
      end
    done;
    {
      energy;
      speeds;
      levels = List.rev !levels;
      schedule = Schedule.make ~machines:inst.machines ~rejected:[] !slices;
    }
  end

let energy inst = (solve inst).energy
let schedule inst = (solve inst).schedule

type certificate = {
  feasible : bool;
  pinched : bool;
  n_levels : int;
}

let certify (inst : Instance.t) (r : result) =
  let n = Instance.n_jobs inst in
  if n = 0 then { feasible = true; pinched = true; n_levels = 0 }
  else begin
    let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
    let times =
      Array.mapi (fun j s -> (Instance.job inst j).workload /. s) r.speeds
    in
    let feasible = feasible_times inst tl ~times in
    (* optimality witness: uniformly slowing any whole level breaks
       feasibility, so no level can be lowered — together with the
       per-round minimality this pins the speeds *)
    let pinched =
      List.for_all
        (fun level ->
          let slowed =
            Array.mapi
              (fun j t ->
                if Feq.approx r.speeds.(j) level then t /. (1.0 -. theta)
                else t)
              times
          in
          not (feasible_times inst tl ~times:slowed))
        r.levels
    in
    { feasible; pinched; n_levels = List.length r.levels }
  end
