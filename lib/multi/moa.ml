open Speedscale_model
open Speedscale_solver

(* Energy-optimal plan for a remaining-work job list (original ids are
   preserved through the rank remapping; all releases equal [now], so
   Instance.make's release-rank renumbering is the list order). *)
let plan_slices ~power ~machines : Speedscale_single.Oa_engine.plan_fn =
 fun ~now:_ jobs ->
  let rank_to_orig = Array.of_list (List.map (fun (j : Job.t) -> j.id) jobs) in
  let sub = Instance.make ~power ~machines jobs in
  let planned =
    if machines = 1 then
      Speedscale_single.Yds.schedule_slices (Array.to_list sub.jobs)
    else
      let cp = Cp.make sub in
      let sol = Cp.solve ~max_iters:800 cp Must_finish in
      snd (Cp.to_slices cp sol.x)
  in
  List.map
    (fun (s : Schedule.slice) -> { s with job = rank_to_orig.(s.job) })
    planned

let start ~power ~machines () =
  Speedscale_single.Oa_engine.start ~machines
    ~plan:(plan_slices ~power ~machines)
    ~must_finish:true ()

let schedule (inst : Instance.t) =
  let t = start ~power:inst.power ~machines:inst.machines () in
  Array.iter
    (fun j -> ignore (Speedscale_single.Oa_engine.step t j))
    inst.jobs;
  Speedscale_single.Oa_engine.current_plan t

let energy (inst : Instance.t) = Schedule.energy inst.power (schedule inst)
