open Speedscale_model

let e = Float.exp 1.0

(* Work of jobs known at time [t] whose windows fit in [t1, t2]. *)
let known_work (inst : Instance.t) ~t ~t1 ~t2 =
  Array.fold_left
    (fun acc (j : Job.t) ->
      if j.release <= t && j.release >= t1 && j.deadline <= t2 then
        acc +. j.workload
      else acc)
    0.0 inst.jobs

let speed_at (inst : Instance.t) t =
  let best = ref 0.0 in
  Array.iter
    (fun (j : Job.t) ->
      let t2 = j.deadline in
      if t2 > t then begin
        let t1 = (e *. t) -. ((e -. 1.0) *. t2) in
        let w = known_work inst ~t ~t1 ~t2 in
        let v = w /. (e *. (t2 -. t)) in
        if v > !best then best := v
      end)
    inst.jobs;
  e *. !best

let check_single (inst : Instance.t) =
  if inst.machines <> 1 then
    invalid_arg "Bkp: single-processor algorithm (machines = 1)"

(* EDF execution over a piecewise-constant speed profile. *)
let edf_over (inst : Instance.t) profile =
  let n = Instance.n_jobs inst in
  let remaining = Array.init n (fun i -> (Instance.job inst i).workload) in
  let slices = ref [] in
  List.iter
    (fun (a, b, speed) ->
      if speed > 0.0 then begin
        let t = ref a in
        let continue = ref true in
        while !continue && !t < b -. 1e-13 do
          let avail =
            List.init n Fun.id
            |> List.filter (fun i ->
                   let j = Instance.job inst i in
                   j.release <= !t +. Speedscale_util.Feq.tol_guard
                   && j.deadline > !t
                   && remaining.(i) > Speedscale_util.Feq.tol_guard)
          in
          match
            List.sort
              (fun i1 i2 ->
                Float.compare (Instance.job inst i1).deadline
                  (Instance.job inst i2).deadline)
              avail
          with
          | [] -> continue := false
          | i :: _ ->
            let j = Instance.job inst i in
            let t_end =
              Float.min
                (Float.min b j.deadline)
                (!t +. (remaining.(i) /. speed))
            in
            let dt = t_end -. !t in
            if dt > Speedscale_util.Feq.tol_step then begin
              slices :=
                { Schedule.proc = 0; t0 = !t; t1 = t_end; job = i; speed }
                :: !slices;
              remaining.(i) <- remaining.(i) -. (dt *. speed);
              t := t_end
            end
            else begin
              remaining.(i) <- 0.0;
              t := t_end
            end
        done
      end)
    profile;
  (!slices, remaining)

let profile_of (inst : Instance.t) ~steps =
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let segs = ref [] in
  for k = 0 to Timeline.n_intervals tl - 1 do
    let lo, hi = Timeline.bounds tl k in
    let h = (hi -. lo) /. float_of_int steps in
    for i = 0 to steps - 1 do
      let a = lo +. (float_of_int i *. h) in
      let b = a +. h in
      (* conservative per-step speed: max of three samples plus margin *)
      let s =
        Float.max
          (Float.max (speed_at inst a) (speed_at inst ((a +. b) /. 2.0)))
          (speed_at inst (b -. (Speedscale_util.Feq.tol_snap *. h)))
        *. (1.0 +. Speedscale_util.Feq.tol_loose)
      in
      segs := (a, b, s) :: !segs
    done
  done;
  List.rev !segs

let slices ?(steps_per_interval = 64) (inst : Instance.t) =
  check_single inst;
  let rec attempt steps tries =
    let slices, remaining = edf_over inst (profile_of inst ~steps) in
    let unfinished =
      Array.exists
        (fun r -> r > Speedscale_util.Feq.tol_loose *. (1.0 +. Array.fold_left Float.max 0.0 remaining))
        remaining
    in
    if (not unfinished) || tries = 0 then slices
    else attempt (steps * 2) (tries - 1)
  in
  attempt steps_per_interval 4

let schedule ?steps_per_interval inst =
  Schedule.make ~machines:1 ~rejected:[] (slices ?steps_per_interval inst)

let energy ?steps_per_interval (inst : Instance.t) =
  Schedule.energy inst.power (schedule ?steps_per_interval inst)
