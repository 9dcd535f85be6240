open Speedscale_util
open Speedscale_model

let check_single (inst : Instance.t) =
  if inst.machines <> 1 then
    invalid_arg "Avr: single-processor algorithm (machines = 1)"

let interval_speed (inst : Instance.t) ~lo ~hi =
  let acc = Ksum.create () in
  Array.iter
    (fun (j : Job.t) -> if Job.covers j ~lo ~hi then Ksum.add acc (Job.density j))
    inst.jobs;
  Ksum.total acc

let energy (inst : Instance.t) =
  check_single inst;
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let acc = Ksum.create () in
  for k = 0 to Timeline.n_intervals tl - 1 do
    let lo, hi = Timeline.bounds tl k in
    let s = interval_speed inst ~lo ~hi in
    Ksum.add acc (Power.energy inst.power ~speed:s ~duration:(hi -. lo))
  done;
  Ksum.total acc

let slices (inst : Instance.t) =
  check_single inst;
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let slices = ref [] in
  for k = 0 to Timeline.n_intervals tl - 1 do
    let lo, hi = Timeline.bounds tl k in
    let s = interval_speed inst ~lo ~hi in
    if s > 0.0 then begin
      (* sequentialize the processor-sharing schedule: job j owns a chunk
         proportional to its density, run at the summed speed *)
      let cursor = ref lo in
      Array.iter
        (fun (j : Job.t) ->
          if Job.covers j ~lo ~hi then begin
            let dur = Job.density j *. (hi -. lo) /. s in
            if dur > Feq.tol_dust then begin
              slices :=
                {
                  Schedule.proc = 0;
                  t0 = !cursor;
                  t1 = !cursor +. dur;
                  job = j.id;
                  speed = s;
                }
                :: !slices;
              cursor := !cursor +. dur
            end
          end)
        inst.jobs
    end
  done;
  !slices

let schedule inst = Schedule.make ~machines:1 ~rejected:[] (slices inst)
