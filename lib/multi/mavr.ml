open Speedscale_util
open Speedscale_model
open Speedscale_chen

let interval_loads (inst : Instance.t) ~lo ~hi =
  Array.to_list inst.jobs
  |> List.filter_map (fun (j : Job.t) ->
         if Job.covers j ~lo ~hi then Some (j.id, Job.density j *. (hi -. lo))
         else None)

let slices (inst : Instance.t) =
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let slices = ref [] in
  for k = 0 to Timeline.n_intervals tl - 1 do
    let lo, hi = Timeline.bounds tl k in
    match interval_loads inst ~lo ~hi with
    | [] -> ()
    | loads ->
      let chen = Chen.build ~machines:inst.machines ~length:(hi -. lo) loads in
      slices := Chen.slices chen ~t0:lo ~t1:hi @ !slices
  done;
  !slices

let schedule (inst : Instance.t) =
  Schedule.make ~machines:inst.machines ~rejected:[] (slices inst)

let energy (inst : Instance.t) =
  let tl = Timeline.of_jobs (Array.to_list inst.jobs) in
  let acc = Ksum.create () in
  for k = 0 to Timeline.n_intervals tl - 1 do
    let lo, hi = Timeline.bounds tl k in
    match interval_loads inst ~lo ~hi with
    | [] -> ()
    | loads ->
      Ksum.add acc
        (Chen.energy inst.power
           (Chen.build ~machines:inst.machines ~length:(hi -. lo) loads))
  done;
  Ksum.total acc
