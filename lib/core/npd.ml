open Speedscale_model

module O = Pd_core.Energy_value

(* The non-preemptive relaxation: every accepted job owns one contiguous
   slot on one machine and runs it at constant speed.  Pricing scans the
   free gaps of every machine inside the job's window; because
   [len * P(w/len)] is strictly decreasing in [len] for alpha > 1, the
   cheapest placement inside a gap always uses the whole gap∩window, so
   each gap contributes exactly one candidate.  The candidate price is
   PD's marginal price at the slot speed, [delta * w * P'(w/len)] — the
   same vocabulary as the preemptive engine, so the weak-duality bound
   over the multipliers stays a valid certificate (non-preemptive
   schedules are a subset of the preemptive relaxation's). *)
module Windows = struct
  type slot = { s0 : float; s1 : float; job : int; speed : float }

  type t = {
    obj : O.t;
    err : string;
    gc : bool;
    machines : int;
    booked : slot list array;  (* per machine, sorted by start, disjoint *)
    finished : Pd_core.Slab.t;
    mutable flushed_slots : int;
    mutable live_slots : int;
    mutable max_live : int;
    (* cumulative work counters ([stats]) *)
    mutable probes : int;
    mutable gaps : int;
  }

  let create obj ~err ~gc =
    {
      obj;
      err;
      gc;
      machines = O.machines obj;
      booked = Array.make (O.machines obj) [];
      finished = Pd_core.Slab.create ();
      flushed_slots = 0;
      live_slots = 0;
      max_live = 0;
      probes = 0;
      gaps = 0;
    }

  (* Under gc, park wholly-past slots in the slab.  Slots are sorted and
     disjoint per machine, so the flushable ones form a prefix. *)
  let prepare t (_ : Job.t) ~last_release =
    if t.gc then
      for i = 0 to t.machines - 1 do
        let rec drop = function
          | s :: rest when Pd_core.safely_past ~last_release s.s1 ->
            Pd_core.Slab.push t.finished
              {
                Schedule.proc = i;
                t0 = s.s0;
                t1 = s.s1;
                job = s.job;
                speed = s.speed;
              };
            t.flushed_slots <- t.flushed_slots + 1;
            t.live_slots <- t.live_slots - 1;
            drop rest
          | rest -> rest
        in
        t.booked.(i) <- drop t.booked.(i)
      done

  (* The cheapest candidate slot: scan machines in index order and each
     machine's gaps in time order, keeping the strictly cheapest — a
     deterministic earliest-machine/earliest-gap tie-break. *)
  let best_candidate t (job : Job.t) =
    let w = job.workload in
    let best = ref None in
    let consider i g0 g1 =
      t.gaps <- t.gaps + 1;
      let len = g1 -. g0 in
      let scale = 1.0 +. Float.max (Float.abs g0) (Float.abs g1) in
      if len > Pd_core.boundary_tol *. scale then begin
        t.probes <- t.probes + 1;
        let price = O.price_of_speed t.obj ~workload:w (w /. len) in
        match !best with
        | Some (p, _, _, _) when p <= price -> ()
        | _ -> best := Some (price, i, g0, g1)
      end
    in
    for i = 0 to t.machines - 1 do
      let rec walk cursor = function
        | _ when cursor >= job.deadline -> ()
        | [] -> consider i cursor job.deadline
        | s :: rest ->
          if s.s1 <= cursor then walk cursor rest
          else begin
            if s.s0 > cursor then
              consider i cursor (Float.min s.s0 job.deadline);
            walk (Float.max cursor s.s1) rest
          end
      in
      walk job.release t.booked.(i)
    done;
    !best

  let insert_slot t i s =
    let rec ins = function
      | [] -> [ s ]
      | x :: rest -> if x.s0 <= s.s0 then x :: ins rest else s :: x :: rest
    in
    t.booked.(i) <- ins t.booked.(i);
    t.live_slots <- t.live_slots + 1;
    if t.live_slots > t.max_live then t.max_live <- t.live_slots

  (* Both solver flavours coincide: the candidate set is finite and the
     closed-form price needs no iteration, so [reference] is ignored. *)
  let price t (job : Job.t) ~reference:_ =
    let cap = job.value in
    match best_candidate t job with
    | None ->
      if Float.is_finite cap then Pd_core.Reject cap
      else
        failwith
          (Fmt.str
             "%s.arrive: job %d must finish but no machine has a free slot \
              inside [%g, %g)"
             t.err job.id job.release job.deadline)
    | Some (price, i, g0, g1) ->
      if Float.is_finite cap && price > cap then Pd_core.Reject cap
      else begin
        insert_slot t i
          { s0 = g0; s1 = g1; job = job.id; speed = job.workload /. (g1 -. g0) };
        Pd_core.Accept (price, [ (i, job.workload) ])
      end

  (* The booked slots machine by machine, then the flushed ones newest
     first: the reverse of the slab's push order followed by each
     machine's slots reversed, from machine m - 1 down to 0. *)
  let schedule t ~rejected =
    let room = Array.fold_left (fun n b -> n + List.length b) 0 t.booked in
    Pd_core.Slab.schedule t.finished ~machines:t.machines ~rejected ~room
      (fun buf pos ->
        let pos = ref pos in
        for i = t.machines - 1 downto 0 do
          let last = !pos + List.length t.booked.(i) - 1 in
          List.iteri
            (fun k s ->
              Schedule.write_slice buf (last - k)
                { proc = i; t0 = s.s0; t1 = s.s1; job = s.job; speed = s.speed })
            t.booked.(i);
          pos := last + 1
        done;
        !pos)

  let stats t =
    {
      Pd_core.arrivals = 0;
      probes = t.probes;
      intervals = t.gaps;
      breakpoints = 0;
      bisections = 0;
    }

  let mem t =
    {
      Pd_core.live_intervals = t.live_slots;
      max_live_intervals = t.max_live;
      table_entries = 0;
      max_table_entries = 0;
      flushed_intervals = t.flushed_slots;
      evicted_jobs = 0;
      finished_slices = Pd_core.Slab.length t.finished;
    }
end

module Core = Pd_core.Make (Windows)

type t = Core.t

type decision = Pd_core.decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
}

let create ?delta ?(gc = false) ~power ~machines () =
  Core.create ~gc ~err:"Npd"
    (O.make ?delta ~err:"Npd.create" ~power ~machines ())

let arrive = Core.arrive
let schedule = Core.schedule
let stats = Core.stats
let mem = Core.mem
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
}

let run ?delta (inst : Instance.t) =
  let t = create ?delta ~power:inst.power ~machines:inst.machines () in
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
  }
