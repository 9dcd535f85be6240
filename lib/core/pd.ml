open Speedscale_model

(* PD is the framework's reference instantiation: Pd_core's loop over
   the atomic-interval/Chen water-filling relaxation, pricing the paper's
   energy+lost-value objective, with Pd_core's certificate read off its
   decisions.
   Everything below is a thin delegation layer; the algorithm itself
   lives in Pd_core (where both the fast breakpoint-walk solver and the
   bisection reference oracle are shared with any other instantiation of
   the interval relaxation). *)

module O = Pd_core.Energy_value
module R = Pd_core.Interval
module Core = Pd_core.Make (R)

type t = Core.t

type stats = Pd_core.stats = {
  arrivals : int;
  probes : int;
  intervals : int;
  breakpoints : int;
  bisections : int;
}

type mem_stats = Pd_core.mem_stats = {
  live_intervals : int;
  max_live_intervals : int;
  table_entries : int;
  max_table_entries : int;
  flushed_intervals : int;
  evicted_jobs : int;
  finished_slices : int;
}

type decision = Pd_core.decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
}

let create ?delta ?(gc = false) ~power ~machines () =
  Core.create ~gc ~err:"Pd"
    (O.make ?delta ~err:"Pd.create" ~power ~machines ())

let stats = Core.stats
let mem = Core.mem
let arrive = Core.arrive
let arrive_reference = Core.arrive_reference
let boundaries t = R.boundaries (Core.relax t)
let interval_loads t = R.interval_loads (Core.relax t)
let schedule = Core.schedule
let delta t = O.delta (Core.obj t)
let certificate = Pd_core.certificate

type result = {
  schedule : Schedule.t;
  cost : Cost.t;
  lambda : float array;
  accepted : int list;
  rejected : int list;
  dual_bound : float;
  guarantee : float;
  decisions : decision list;
  delta : float;
  final_boundaries : float array;
  final_loads : (int * float) list array;
}

let run ?delta:d (inst : Instance.t) =
  let t = create ?delta:d ~power:inst.power ~machines:inst.machines () in
  let decisions =
    List.init (Instance.n_jobs inst) (fun i -> arrive t (Instance.job inst i))
  in
  let sched = schedule t in
  let lambda = Array.make (Instance.n_jobs inst) 0.0 in
  List.iter (fun (d : decision) -> lambda.(d.job.id) <- d.lambda) decisions;
  let acc, rej = List.partition (fun (d : decision) -> d.accepted) decisions in
  let ids = List.map (fun (d : decision) -> d.job.id) in
  {
    schedule = sched;
    cost = Schedule.cost inst sched;
    lambda;
    accepted = ids acc;
    rejected = ids rej;
    dual_bound =
      certificate ~power:inst.power ~machines:inst.machines decisions;
    guarantee = Power.competitive_bound inst.power;
    decisions;
    delta = delta t;
    final_boundaries = boundaries t;
    final_loads = interval_loads t;
  }
