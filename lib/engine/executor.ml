open Speedscale_util
open Speedscale_model

type event_kind =
  | Arrival
  | Start
  | Speed_change
  | Preempt
  | Resume
  | Migrate
  | Complete
  | Reject
  | Deadline_miss

type event = {
  time : float;
  kind : event_kind;
  job : int;
  proc : int;
  speed : float;
}

type job_outcome = {
  job : int;
  work_done : float;
  completed : bool;
  completion_time : float option;
  n_preemptions : int;
  n_migrations : int;
}

type run = {
  events : event list;
  outcomes : job_outcome array;
  total_energy : float;
  makespan : float;
}

let kind_name = function
  | Arrival -> "arrival"
  | Start -> "start"
  | Speed_change -> "speed-change"
  | Preempt -> "preempt"
  | Resume -> "resume"
  | Migrate -> "migrate"
  | Complete -> "complete"
  | Reject -> "reject"
  | Deadline_miss -> "deadline-miss"

(* total order used to break time ties deterministically *)
let kind_rank = function
  | Arrival -> 0
  | Reject -> 1
  | Complete -> 2
  | Preempt -> 3
  | Speed_change -> 4
  | Start -> 5
  | Resume -> 6
  | Migrate -> 7
  | Deadline_miss -> 8

let gap_tol = Feq.tol_snap

type job_state = {
  mutable work : float;
  mutable last_end : float;
  mutable last_proc : int;
  mutable done_at : float option;
  mutable preemptions : int;
  mutable migrations : int;
}

let replay (inst : Instance.t) (sched : Schedule.t) =
  let n = Instance.n_jobs inst in
  let states =
    Array.init n (fun _ ->
        {
          work = 0.0;
          last_end = Float.neg_infinity;
          last_proc = -1;
          done_at = None;
          preemptions = 0;
          migrations = 0;
        })
  in
  let events = ref [] in
  let emit time kind job proc speed =
    events := { time; kind; job; proc; speed } :: !events
  in
  (* arrivals and rejections *)
  Array.iter
    (fun (j : Job.t) ->
      emit j.release Arrival j.id (-1) 0.0;
      if List.mem j.id sched.rejected then emit j.release Reject j.id (-1) 0.0)
    inst.jobs;
  (* per-job slice walks, in global time order per job *)
  let energy = Ksum.create () in
  let makespan = ref 0.0 in
  let by_job = Array.make n [] in
  Schedule.iter
    (fun (sl : Schedule.slice) ->
      if sl.job >= 0 && sl.job < n then by_job.(sl.job) <- sl :: by_job.(sl.job))
    sched;
  Array.iteri
    (fun id slices ->
      let job = Instance.job inst id in
      let st = states.(id) in
      let sorted =
        List.sort (fun (a : Schedule.slice) b -> Float.compare a.t0 b.t0) slices
      in
      List.iter
        (fun (sl : Schedule.slice) ->
          let dur = sl.t1 -. sl.t0 in
          Ksum.add energy (Power.energy inst.power ~speed:sl.speed ~duration:dur);
          if sl.t1 > !makespan then makespan := sl.t1;
          (* lifecycle transitions at the head of the slice (Schedule.make
             keeps every slice's processor >= 0, so -1 means none yet) *)
          (if st.last_proc < 0 then emit sl.t0 Start id sl.proc sl.speed
           else begin
             let contiguous =
               sl.t0 -. st.last_end <= gap_tol *. (1.0 +. Float.abs sl.t0)
             in
             if sl.proc <> st.last_proc then begin
               emit st.last_end Preempt id st.last_proc 0.0;
               st.preemptions <- st.preemptions + 1;
               st.migrations <- st.migrations + 1;
               emit sl.t0 Migrate id sl.proc sl.speed
             end
             else if not contiguous then begin
               emit st.last_end Preempt id st.last_proc 0.0;
               st.preemptions <- st.preemptions + 1;
               emit sl.t0 Resume id sl.proc sl.speed
             end
             else emit sl.t0 Speed_change id sl.proc sl.speed
           end);
          (* work accounting; completion can land inside the slice *)
          let before = st.work in
          st.work <- st.work +. (dur *. sl.speed);
          let target = job.workload *. (1.0 -. Feq.tol_snap) in
          if st.done_at = None && st.work >= target then begin
            let need = job.workload -. before in
            let t_done =
              if sl.speed > 0.0 then
                Float.min sl.t1 (sl.t0 +. (need /. sl.speed))
              else sl.t1
            in
            st.done_at <- Some t_done;
            emit t_done Complete id sl.proc 0.0
          end;
          st.last_end <- sl.t1;
          st.last_proc <- sl.proc)
        sorted;
      (* deadline verdicts *)
      if st.done_at = None && not (List.mem id sched.rejected) then
        emit job.deadline Deadline_miss id (-1) 0.0)
    by_job;
  let outcomes =
    Array.init n (fun id ->
        let st = states.(id) in
        {
          job = id;
          work_done = st.work;
          completed = st.done_at <> None;
          completion_time = st.done_at;
          n_preemptions = st.preemptions;
          n_migrations = st.migrations;
        })
  in
  let events =
    List.sort
      (fun a b ->
        match Float.compare a.time b.time with
        | 0 -> (
          match Int.compare (kind_rank a.kind) (kind_rank b.kind) with
          | 0 -> Int.compare a.job b.job
          | c -> c)
        | c -> c)
      !events
  in
  { events; outcomes; total_energy = Ksum.total energy; makespan = !makespan }

let to_csv run =
  let b = Buffer.create 1024 in
  Buffer.add_string b "time,kind,job,proc,speed\n";
  List.iter
    (fun e ->
      Buffer.add_string b
        (Fmt.str "%.9g,%s,%d,%d,%.9g\n" e.time (kind_name e.kind) e.job
           e.proc e.speed))
    run.events;
  Buffer.contents b

let pp_event ppf e =
  Format.fprintf ppf "%8.4f %-12s job %d proc %d speed %.4g" e.time
    (kind_name e.kind) e.job e.proc e.speed
