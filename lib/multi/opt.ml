open Speedscale_model

type result = {
  cost : float;
  accepted : int list;
  energy : float;
  lost_value : float;
}

(* Jobs of the subset, plus the map from sub-instance rank to original id
   (Instance.make re-ranks by release order). *)
let sub_instance (inst : Instance.t) mask =
  let kept =
    Array.to_list inst.jobs
    |> List.filter (fun (j : Job.t) -> mask land (1 lsl j.id) <> 0)
  in
  let sorted = List.stable_sort Job.compare_release kept in
  let rank_to_orig = Array.of_list (List.map (fun (j : Job.t) -> j.id) sorted) in
  (Instance.make ~power:inst.power ~machines:inst.machines kept, rank_to_orig)

let lost_of (inst : Instance.t) mask =
  Array.fold_left
    (fun acc (j : Job.t) ->
      if mask land (1 lsl j.id) = 0 then acc +. j.value else acc)
    0.0 inst.jobs

let accepted_of (inst : Instance.t) mask =
  List.init (Instance.n_jobs inst) Fun.id
  |> List.filter (fun id -> mask land (1 lsl id) <> 0)

let solve ?(max_jobs = 14) (inst : Instance.t) =
  let n = Instance.n_jobs inst in
  if n > max_jobs then
    invalid_arg
      (Fmt.str "Opt.solve: %d jobs exceed the enumeration limit %d" n
         max_jobs);
  let best =
    ref
      {
        cost = Instance.total_value inst;
        accepted = [];
        energy = 0.0;
        lost_value = Instance.total_value inst;
      }
  in
  for mask = 1 to (1 lsl n) - 1 do
    let lost = lost_of inst mask in
    if lost < !best.cost then begin
      let sub, _ = sub_instance inst mask in
      let energy = Mopt.energy sub in
      let cost = energy +. lost in
      if cost < !best.cost then
        best :=
          { cost; accepted = accepted_of inst mask; energy; lost_value = lost }
    end
  done;
  !best

let best_schedule (inst : Instance.t) =
  let r = solve inst in
  let mask = List.fold_left (fun acc id -> acc lor (1 lsl id)) 0 r.accepted in
  let rejected =
    List.init (Instance.n_jobs inst) Fun.id
    |> List.filter (fun id -> mask land (1 lsl id) = 0)
  in
  if r.accepted = [] then
    (r, Schedule.make ~machines:inst.machines ~rejected [])
  else begin
    let sub, rank_to_orig = sub_instance inst mask in
    let sched = Mopt.schedule sub in
    let slices =
      List.map
        (fun (s : Schedule.slice) -> { s with job = rank_to_orig.(s.job) })
        (Schedule.slices sched)
    in
    (r, Schedule.make ~machines:inst.machines ~rejected slices)
  end
