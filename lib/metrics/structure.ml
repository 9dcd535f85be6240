open Speedscale_util
open Speedscale_model

type t = {
  n_slices : int;
  preemptions : int;
  migrations : int;
  busy_time : float;
  max_speed : float;
  avg_speed : float;
  utilization : float;
}

let gap_tol = Feq.tol_snap

let of_schedule (s : Schedule.t) =
  let slices = Schedule.slices s in
  let by_job = Hashtbl.create 16 in
  List.iter
    (fun (sl : Schedule.slice) ->
      Hashtbl.replace by_job sl.job
        (sl :: Option.value ~default:[] (Hashtbl.find_opt by_job sl.job)))
    slices;
  let preemptions = ref 0 and migrations = ref 0 in
  Hashtbl.iter
    (fun _ group ->
      let sorted =
        List.sort (fun (a : Schedule.slice) b -> Float.compare a.t0 b.t0) group
      in
      let rec scan = function
        | (a : Schedule.slice) :: (b :: _ as rest) ->
          let gap = b.t0 -. a.t1 in
          if gap > gap_tol *. (1.0 +. Float.abs a.t1) then incr preemptions;
          if b.proc <> a.proc then incr migrations;
          scan rest
        | _ -> ()
      in
      scan sorted)
    by_job;
  let busy_time = Ksum.sum_by (fun (sl : Schedule.slice) -> sl.t1 -. sl.t0) slices in
  let work =
    Ksum.sum_by (fun (sl : Schedule.slice) -> (sl.t1 -. sl.t0) *. sl.speed) slices
  in
  let max_speed =
    List.fold_left (fun acc (sl : Schedule.slice) -> Float.max acc sl.speed) 0.0
      slices
  in
  let span =
    match slices with
    | [] -> 0.0
    | sl :: rest ->
      let lo, hi =
        List.fold_left
          (fun (lo, hi) (x : Schedule.slice) ->
            (Float.min lo x.t0, Float.max hi x.t1))
          (sl.t0, sl.t1) rest
      in
      hi -. lo
  in
  {
    n_slices = List.length slices;
    preemptions = !preemptions;
    migrations = !migrations;
    busy_time;
    max_speed;
    avg_speed = (if busy_time > 0.0 then work /. busy_time else 0.0);
    utilization =
      (if span > 0.0 then busy_time /. (float_of_int s.machines *. span)
       else 0.0);
  }

let pp ppf t =
  Format.fprintf ppf
    "slices=%d preempt=%d migrate=%d busy=%.3g maxspeed=%.3g avgspeed=%.3g util=%.3g"
    t.n_slices t.preemptions t.migrations t.busy_time t.max_speed t.avg_speed
    t.utilization
