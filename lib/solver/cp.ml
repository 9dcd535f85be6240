open Speedscale_util
open Speedscale_model
open Speedscale_chen

type t = {
  inst : Instance.t;
  tl : Timeline.t;
  windows : int array array;  (* job -> interval indices *)
  offsets : int array;  (* job -> start of its block in the flat vector *)
  dim : int;
  by_interval : (int * int) list array;
      (* interval k -> (job, flat index) pairs with c_jk = 1 *)
}

type mode = Profitable | Must_finish

let make inst =
  let jobs = List.init (Instance.n_jobs inst) (Instance.job inst) in
  let tl = Timeline.of_jobs jobs in
  let n = Instance.n_jobs inst in
  let windows =
    Array.init n (fun j ->
        let job = Instance.job inst j in
        Timeline.covering tl ~release:job.release ~deadline:job.deadline
        |> Array.of_list)
  in
  let offsets = Array.make n 0 in
  let dim = ref 0 in
  Array.iteri
    (fun j w ->
      offsets.(j) <- !dim;
      dim := !dim + Array.length w)
    windows;
  let by_interval = Array.make (Timeline.n_intervals tl) [] in
  Array.iteri
    (fun j w ->
      Array.iteri
        (fun idx k -> by_interval.(k) <- (j, offsets.(j) + idx) :: by_interval.(k))
        w)
    windows;
  { inst; tl; windows; offsets; dim = !dim; by_interval }

let instance t = t.inst
let timeline t = t.tl
let n_vars t = t.dim
let window t j = Array.copy t.windows.(j)
let offset t j = t.offsets.(j)

let completion t x =
  Array.mapi
    (fun j w ->
      let acc = ref 0.0 in
      Array.iteri (fun idx _ -> acc := !acc +. x.(t.offsets.(j) + idx)) w;
      !acc)
    t.windows

let interval_problem t x k =
  let loads =
    List.filter_map
      (fun (j, flat) ->
        let load = x.(flat) *. (Instance.job t.inst j).workload in
        if load > 0.0 then Some (j, load) else None)
      t.by_interval.(k)
  in
  Chen.build ~machines:t.inst.machines ~length:(Timeline.length t.tl k) loads

let energy t x =
  let acc = Ksum.create () in
  for k = 0 to Timeline.n_intervals t.tl - 1 do
    Ksum.add acc (Chen.energy t.inst.power (interval_problem t x k))
  done;
  Ksum.total acc

let lost_value t x =
  let comp = completion t x in
  let acc = Ksum.create () in
  Array.iteri
    (fun j c ->
      let v = (Instance.job t.inst j).value in
      let missing = Float.max 0.0 (1.0 -. c) in
      (* infinite-value jobs are pinned to the simplex by the projection;
         tolerate float dust in the completion *)
      if Float.equal v Float.infinity then begin
        if missing > Feq.tol_loose then Ksum.add acc Float.infinity
      end
      else Ksum.add acc (v *. missing))
    comp;
  Ksum.total acc

let objective t mode x =
  match mode with
  | Must_finish -> energy t x
  | Profitable -> energy t x +. lost_value t x

let gradient t mode x =
  let g = Array.make t.dim 0.0 in
  for k = 0 to Timeline.n_intervals t.tl - 1 do
    let problem = interval_problem t x k in
    let speeds = Chen.job_speeds problem in
    (* marginal speed for jobs with zero load in this interval *)
    let zero_speed = Chen.probe_speed problem 0.0 in
    List.iter
      (fun (j, flat) ->
        let w = (Instance.job t.inst j).workload in
        let s =
          match List.assoc_opt j speeds with
          | Some s -> s
          | None -> zero_speed
        in
        g.(flat) <- w *. Power.deriv t.inst.power s)
      t.by_interval.(k)
  done;
  (match mode with
  | Must_finish -> ()
  | Profitable ->
    Array.iteri
      (fun j w ->
        let v = (Instance.job t.inst j).value in
        if Float.is_finite v then
          Array.iteri
            (fun idx _ ->
              let flat = t.offsets.(j) + idx in
              g.(flat) <- g.(flat) -. v)
            w)
      t.windows);
  g

let project t mode x =
  let out = Array.copy x in
  Array.iteri
    (fun j w ->
      let len = Array.length w in
      let block = Array.sub out t.offsets.(j) len in
      let v = (Instance.job t.inst j).value in
      let projected =
        match mode with
        | Must_finish -> Proj.simplex ~total:1.0 block
        | Profitable ->
          if Float.equal v Float.infinity then Proj.simplex ~total:1.0 block
          else Proj.capped_simplex ~total:1.0 block
      in
      Array.blit projected 0 out t.offsets.(j) len)
    t.windows;
  out

type solution = {
  x : float array;
  objective : float;
  energy : float;
  lost_value : float;
  completion : float array;
  iterations : int;
  converged : bool;
}

(* Exact block-coordinate descent: one job's allocation, others fixed, has
   a closed-form optimum via water-filling — find the price level mu at
   which the job's marginal w·P'(s) is equal across its used intervals.
   Chen.probe_load_for_speed answers "how much load before interval k
   reaches speed s", so one outer bisection on mu solves the block
   exactly.  For profitable jobs the price is capped at the value (KKT:
   partial completion pins the marginal at v).  Convex + C1 + separable
   blocks => sweeps converge to the global optimum; in practice a few
   sweeps polish the projected-gradient point to ~1e-6 KKT residual. *)
let rebalance_sweeps t mode x ~sweeps =
  let n = Instance.n_jobs t.inst in
  for _ = 1 to sweeps do
    for j = 0 to n - 1 do
      let job = Instance.job t.inst j in
      let w = job.workload in
      let window = t.windows.(j) in
      let base = t.offsets.(j) in
      (* per-interval Chen problems of everyone else's loads *)
      let others =
        Array.map
          (fun k ->
            let loads =
              List.filter_map
                (fun (j', flat) ->
                  if j' = j then None
                  else
                    let load = x.(flat) *. (Instance.job t.inst j').workload in
                    if load > 0.0 then Some (j', load) else None)
                t.by_interval.(k)
            in
            Chen.build ~machines:t.inst.machines
              ~length:(Timeline.length t.tl k) loads)
          window
      in
      let load_at p s = Float.min (Chen.probe_load_for_speed p s) w in
      let speed_of_price mu = Power.inv_deriv t.inst.power (mu /. w) in
      let assigned mu =
        let s = speed_of_price mu in
        Ksum.sum_by (fun p -> load_at p s) (Array.to_list others)
      in
      let commit mu =
        let s = speed_of_price mu in
        Array.iteri
          (fun idx p -> x.(base + idx) <- load_at p s /. w)
          others
      in
      let solve_full () =
        let hi =
          Speedscale_util.Bisect.grow_bracket ~f:assigned ~target:w ~lo:0.0
            ~init:
              (Float.max Feq.tol_snap
                 (w *. Power.deriv t.inst.power (w /. Float.max Feq.tol_snap (Job.span job))))
            ()
        in
        let mu =
          Speedscale_util.Bisect.monotone_inverse ~f:assigned ~target:w
            ~lo:0.0 ~hi ()
        in
        commit mu;
        (* normalize bisection dust to exact completion *)
        let total = ref 0.0 in
        Array.iteri (fun idx _ -> total := !total +. x.(base + idx)) others;
        if !total > 0.0 then
          Array.iteri
            (fun idx _ -> x.(base + idx) <- x.(base + idx) /. !total)
            others
      in
      match mode with
      | Must_finish -> solve_full ()
      | Profitable ->
        if Float.equal job.value Float.infinity then solve_full ()
        else if assigned job.value >= w *. (1.0 -. Feq.tol_guard) then solve_full ()
        else
          (* partial completion at marginal price = value *)
          commit job.value
    done
  done

let solve ?(max_iters = 4000) ?(tol = 1e-10) ?x0 t mode =
  let x0 =
    match x0 with
    | Some x ->
      if Array.length x <> t.dim then invalid_arg "Cp.solve: x0 dimension";
      x
    | None ->
      let x = Array.make t.dim 0.0 in
      Array.iteri
        (fun j w ->
          let len = Array.length w in
          let share = 1.0 /. float_of_int (max 1 len) in
          Array.iteri (fun idx _ -> x.(t.offsets.(j) + idx) <- share) w)
        t.windows;
      x
  in
  let r =
    Pgd.minimize ~max_iters ~tol
      ~f:(fun x -> objective t mode x)
      ~grad:(fun x -> gradient t mode x)
      ~project:(fun x -> project t mode x)
      ~x0 ()
  in
  (* polish with exact per-job water-filling; sweep until the objective
     stops improving (it cannot increase: every block step is exact) *)
  let x = Array.copy r.x in
  let budget = ref 25 in
  let continue = ref true in
  let best = ref (objective t mode x) in
  while !continue && !budget > 0 do
    decr budget;
    rebalance_sweeps t mode x ~sweeps:1;
    let now = objective t mode x in
    if now >= !best -. (Feq.tol_guard *. (1.0 +. Float.abs !best)) then
      continue := false;
    if now < !best then best := now
  done;
  {
    x;
    objective = objective t mode x;
    energy = energy t x;
    lost_value = lost_value t x;
    completion = completion t x;
    iterations = r.iterations;
    converged = r.converged;
  }

let to_slices ?(finish_tol = Feq.tol_loose) t x =
  let comp = completion t x in
  let rejected = ref [] in
  let scale = Array.make (Instance.n_jobs t.inst) 0.0 in
  Array.iteri
    (fun j c ->
      if c >= 1.0 -. finish_tol then scale.(j) <- 1.0 /. c
      else rejected := j :: !rejected)
    comp;
  let slices = ref [] in
  for k = 0 to Timeline.n_intervals t.tl - 1 do
    let loads =
      List.filter_map
        (fun (j, flat) ->
          let load = x.(flat) *. scale.(j) *. (Instance.job t.inst j).workload in
          if load > 0.0 then Some (j, load) else None)
        t.by_interval.(k)
    in
    if loads <> [] then begin
      let lo, hi = Timeline.bounds t.tl k in
      let problem =
        Chen.build ~machines:t.inst.machines ~length:(hi -. lo) loads
      in
      slices := Chen.slices problem ~t0:lo ~t1:hi @ !slices
    end
  done;
  (!rejected, !slices)

let to_schedule ?finish_tol t x =
  let rejected, slices = to_slices ?finish_tol t x in
  Schedule.make ~machines:t.inst.machines ~rejected slices
