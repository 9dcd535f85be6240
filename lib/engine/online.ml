open Speedscale_model
module Pd = Speedscale_core.Pd
module Npd = Speedscale_core.Npd
module Oa_engine = Speedscale_single.Oa_engine
module Yds = Speedscale_single.Yds
module Cll = Speedscale_single.Cll
module Avr = Speedscale_single.Avr
module Bkp = Speedscale_single.Bkp
module Moa = Speedscale_multi.Moa
module Mcll = Speedscale_multi.Mcll
module Mavr = Speedscale_multi.Mavr
module Partitioned = Speedscale_multi.Partitioned

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                           *)
(* ------------------------------------------------------------------ *)

type params = {
  power : Power.t;
  machines : int;
  delta : float option;
}

let params ?delta ~power ~machines () =
  if machines < 1 then invalid_arg "Online.params: machines must be >= 1";
  { power; machines; delta }

let params_of_instance ?delta (inst : Instance.t) =
  params ?delta ~power:inst.power ~machines:inst.machines ()

type decision = {
  job_id : int;
  accepted : bool;
  lambda : float option;
  planned_speed : float option;
}

(* Which scheduling model the engine's plans live in; `psched engines`
   groups the registry by this. *)
type family = Preemptive | Non_preemptive | Migratory

let family_name = function
  | Preemptive -> "preemptive"
  | Non_preemptive -> "non-preemptive"
  | Migratory -> "migratory"

(* ------------------------------------------------------------------ *)
(* Snapshot wire format (doc/ENGINE.md)                                 *)
(*                                                                      *)
(*   online-snapshot v1                                                 *)
(*   engine <name>                                                      *)
(*   alpha <float>                                                      *)
(*   machines <int>                                                     *)
(*   delta <float>            -- only when params.delta is Some         *)
(*   job <id> <r> <d> <w> <v|inf>   -- one line per arrival, in order   *)
(*                                                                      *)
(* Every engine is a deterministic function of its arrival prefix       *)
(* (PD fixes each multiplier when its job arrives and never revisits    *)
(* it), so recording params + arrivals and replaying them on restore is *)
(* an exact state transfer.  This is the only serialized form of engine *)
(* state: Service checkpoints write it and --restore reads it; live     *)
(* migration moves the state without serializing it (doc/SERVICE.md).   *)
(* ------------------------------------------------------------------ *)

let render_snapshot ~name ~(p : params) (jobs : Job.t list) =
  let b = Buffer.create 256 in
  let pf fmt = Fmt.kstr (Buffer.add_string b) fmt in
  pf "online-snapshot v1\n";
  pf "engine %s\n" name;
  pf "alpha %.17g\n" (Power.alpha p.power);
  pf "machines %d\n" p.machines;
  (match p.delta with None -> () | Some d -> pf "delta %.17g\n" d);
  List.iter
    (fun (j : Job.t) -> Buffer.add_string b (Io.job_line ~id:j.id j))
    jobs;
  Buffer.contents b

type parsed_snapshot = {
  s_engine : string;
  s_params : params;
  s_jobs : Job.t list;  (** in arrival order *)
}

(* Header, number and job-field checks are Io's; this reader adds the
   [engine] and [delta] lines and explicit job ids. *)
let parse_snapshot s =
  let engine = ref None
  and alpha = ref None
  and machines = ref None
  and delta = ref None
  and jobs_rev = ref [] in
  let lines = String.split_on_char '\n' s in
  (match lines with
  | first :: _ when String.trim first = "online-snapshot v1" -> ()
  | _ -> failwith "Online.restore: not an online-snapshot v1");
  match
    List.iteri
      (fun i text ->
        let line = i + 1 in
        if line > 1 then
          match Io.tokens text with
          | [] -> ()
          | [ "engine"; name ] -> engine := Some name
          | [ "alpha"; v ] -> alpha := Some (Io.power ~line v)
          | [ "machines"; v ] -> machines := Some (Io.machines ~line v)
          | [ "delta"; v ] -> delta := Some (Io.number ~line "delta" v)
          | [ "job"; id; r; d; w; v ] ->
            let id =
              match int_of_string_opt id with
              | Some id -> id
              | None -> Io.fail ~line "bad job id %S" id
            in
            jobs_rev := Io.job ~line ~id r d w v :: !jobs_rev
          | _ -> Io.fail ~line "unrecognized %S" (String.trim text))
      lines;
    let need what = function
      | Some v -> v
      | None -> failwith (Fmt.str "missing '%s' line" what)
    in
    let power = need "alpha" !alpha and machines = need "machines" !machines in
    {
      s_engine = need "engine" !engine;
      s_params = params ?delta:!delta ~power ~machines ();
      s_jobs = List.rev !jobs_rev;
    }
  with
  | parsed -> parsed
  | exception Failure m -> failwith ("Online.restore: " ^ m)

(* ------------------------------------------------------------------ *)
(* The engine signature and the wrapper functor                          *)
(* ------------------------------------------------------------------ *)

module type ONLINE = sig
  val name : string
  val description : string
  val family : family
  val applicable : params -> bool

  type state

  val create : params -> state
  val arrive : state -> Job.t -> decision
  val current_plan : state -> Schedule.t
  val params_of : state -> params
  val snapshot : state -> string
  val restore : string -> state
end

(* What each concrete algorithm provides; [Make] adds the uniform
   arrival validation, seen-jobs recording and replay-based
   snapshot/restore on top. *)
module type CORE = sig
  val name : string
  val description : string
  val family : family
  val applicable : params -> bool

  type core

  val create_core : params -> core
  val arrive_core : core -> Job.t -> decision
  val plan_core : core -> Schedule.t
end

module Make (C : CORE) : ONLINE = struct
  let name = C.name
  let description = C.description
  let family = C.family
  let applicable = C.applicable

  type state = {
    params : params;
    core : C.core;
    seen_ids : (int, unit) Hashtbl.t;
    mutable last_release : float;  (** [neg_infinity] before any arrival *)
    mutable seen_rev : Job.t list;  (** original arrivals, newest first *)
    mutable failed : int option;
        (** the job whose [arrive_core] raised: the core may have recorded
            part of it, so the state takes no further arrivals *)
  }

  let create p =
    if not (C.applicable p) then
      invalid_arg
        (Fmt.str "Online: engine %s is not applicable (machines = %d)" C.name
           p.machines);
    {
      params = p;
      core = C.create_core p;
      seen_ids = Hashtbl.create 16;
      last_release = Float.neg_infinity;
      seen_rev = [];
      failed = None;
    }

  let arrive st (j : Job.t) =
    (match st.failed with
    | Some id ->
      invalid_arg
        (Fmt.str
           "Online.arrive: job %d refused: the engine failed on job %d and \
            takes no further arrivals"
           j.id id)
    | None -> ());
    if Hashtbl.mem st.seen_ids j.id then
      invalid_arg (Fmt.str "Online.arrive: duplicate job id %d" j.id);
    if j.release < st.last_release then
      invalid_arg
        (Fmt.str "Online.arrive: job %d released at %g before current time %g"
           j.id j.release st.last_release);
    match C.arrive_core st.core j with
    | exception e ->
      st.failed <- Some j.id;
      raise e
    | d ->
      Hashtbl.replace st.seen_ids j.id ();
      st.last_release <- j.release;
      st.seen_rev <- j :: st.seen_rev;
      d

  let current_plan st = C.plan_core st.core
  let params_of st = st.params
  let snapshot st = render_snapshot ~name ~p:st.params (List.rev st.seen_rev)

  let restore s =
    let parsed = parse_snapshot s in
    if parsed.s_engine <> name then
      failwith
        (Fmt.str "Online.restore: snapshot is for engine %s, not %s"
           parsed.s_engine name);
    (* An inapplicable engine, a bad delta, or a replay the arrival
       checks refuse (duplicate id, release order) is a bad snapshot,
       not a programming error. *)
    match
      let st = create parsed.s_params in
      List.iter (fun j -> ignore (arrive st j)) parsed.s_jobs;
      st
    with
    | st -> st
    | exception Invalid_argument m -> failwith ("Online.restore: " ^ m)
end

type engine = (module ONLINE)

(* ------------------------------------------------------------------ *)
(* Concrete engines                                                     *)
(* ------------------------------------------------------------------ *)

let any_machines (_ : params) = true
let single_only (p : params) = p.machines = 1

(* PD: natively incremental — its state (atomic intervals, committed
   loads, multipliers) is exactly the paper's.  The engine runs PD with
   ~gc:true: unbounded streams (psched stream, @stream-soak) keep only
   the live window resident, and decisions/schedules are provably
   identical to the full-history state (Pd.create's contract; the
   oracle suite in test_core.ml checks it).  Snapshots are unaffected —
   the Make wrapper's replay format records arrivals, not the
   timeline. *)
let pd : engine =
  (module Make (struct
    let name = "pd"
    let description = "primal-dual (the paper's algorithm, Listing 1)"
    let family = Migratory
    let applicable = any_machines

    type core = Pd.t

    let create_core (p : params) =
      Pd.create ?delta:p.delta ~gc:true ~power:p.power ~machines:p.machines ()

    let arrive_core core j =
      let d = Pd.arrive core j in
      {
        job_id = j.Job.id;
        accepted = d.Pd.accepted;
        lambda = Some d.Pd.lambda;
        planned_speed = Some d.Pd.planned_speed;
      }

    let plan_core = Pd.schedule
  end))

(* NPD: the non-preemptive sibling — same framework, same gc contract,
   but accepted jobs commit to one contiguous slot on one machine. *)
let npd : engine =
  (module Make (struct
    let name = "npd"
    let description = "non-preemptive primal-dual: pricing over contiguous slots"
    let family = Non_preemptive
    let applicable = any_machines

    type core = Npd.t

    let create_core (p : params) =
      Npd.create ?delta:p.delta ~gc:true ~power:p.power ~machines:p.machines ()

    let arrive_core core j =
      let d = Npd.arrive core j in
      {
        job_id = j.Job.id;
        accepted = d.Npd.accepted;
        lambda = Some d.Npd.lambda;
        planned_speed = Some d.Npd.planned_speed;
      }

    let plan_core = Npd.schedule
  end))

(* The OA-family engines share the replan-execute core. *)
let verdict_decision (j : Job.t) (v : Oa_engine.verdict) =
  {
    job_id = j.id;
    accepted = v.admitted;
    lambda = None;
    planned_speed = v.planned_speed;
  }

module Oa_like (S : sig
  val name : string
  val description : string
  val family : family
  val applicable : params -> bool
  val start : params -> Oa_engine.t
end) =
struct
  let name = S.name
  let description = S.description
  let family = S.family
  let applicable = S.applicable

  type core = Oa_engine.t

  let create_core = S.start
  let arrive_core core j = verdict_decision j (Oa_engine.step core j)
  let plan_core = Oa_engine.current_plan
end

let yds_plan ~now:_ jobs = Yds.schedule_slices jobs

let oa : engine =
  (module Make (Oa_like (struct
    let name = "oa"
    let description = "Optimal Available (single processor, must finish)"
    let family = Preemptive
    let applicable = single_only

    let start (_ : params) =
      Oa_engine.start ~machines:1 ~plan:yds_plan ~must_finish:true ()
  end)))

let cll : engine =
  (module Make (Oa_like (struct
    let name = "cll"
    let description = "Chan-Lam-Li: OA + speed-threshold rejection"
    let family = Preemptive
    let applicable = single_only

    let start (p : params) =
      Oa_engine.start ~machines:1 ~plan:yds_plan ~admit:(Cll.admission p.power)
        ()
  end)))

let moa : engine =
  (module Make (Oa_like (struct
    let name = "moa"
    let description = "multiprocessor Optimal Available (must finish)"
    let family = Migratory
    let applicable = any_machines
    let start (p : params) = Moa.start ~power:p.power ~machines:p.machines ()
  end)))

let mcll : engine =
  (module Make (Oa_like (struct
    let name = "mcll"
    let description = "naive multiprocessor CLL (the E22 strawman)"
    let family = Migratory
    let applicable = any_machines
    let start (p : params) = Mcll.start ~power:p.power ~machines:p.machines ()
  end)))

(* Replan-from-scratch engines: AVR/BKP/mAVR plans are memoryless
   functions of the available jobs (density profiles), so the standing
   plan after k arrivals is the batch plan of the k-prefix — executing
   incrementally and replanning from scratch coincide.  The adapter
   accumulates the prefix and re-derives the plan on demand.  The batch
   planners finish every job, so the plan rejects nothing; they hand back
   their slice list, renumbered here and made into a schedule once. *)
module Accumulate (S : sig
  val name : string
  val description : string
  val family : family
  val applicable : params -> bool
  val must_finish : bool
  val batch : Instance.t -> Schedule.slice list
end) =
struct
  let name = S.name
  let description = S.description
  let family = S.family
  let applicable = S.applicable

  type core = { p : params; mutable jobs_rev : Job.t list }

  let create_core p = { p; jobs_rev = [] }

  let arrive_core core (j : Job.t) =
    core.jobs_rev <- j :: core.jobs_rev;
    { job_id = j.id; accepted = true; lambda = None; planned_speed = None }

  let plan_core core =
    match core.jobs_rev with
    | [] -> Schedule.make ~machines:core.p.machines ~rejected:[] []
    | jobs_rev ->
      (* Arrivals come in non-decreasing release order, so this sorted
         view is the arrival order modulo id ties — and [Instance.make]
         re-sorts with the same comparator, so rank i is ordered.(i). *)
      let ordered = List.stable_sort Job.compare_release (List.rev jobs_rev) in
      let viewed =
        if S.must_finish then
          List.map
            (fun (j : Job.t) ->
              Job.make ~id:j.id ~release:j.release ~deadline:j.deadline
                ~workload:j.workload ~value:Float.infinity)
            ordered
        else ordered
      in
      let rank_to_orig =
        Array.of_list (List.map (fun (j : Job.t) -> j.id) ordered)
      in
      let sub =
        Instance.make ~power:core.p.power ~machines:core.p.machines viewed
      in
      Schedule.make ~machines:core.p.machines ~rejected:[]
        (List.map
           (fun (s : Schedule.slice) -> { s with job = rank_to_orig.(s.job) })
           (S.batch sub))
end

let avr : engine =
  (module Make (Accumulate (struct
    let name = "avr"
    let description = "Average Rate (single processor, must finish)"
    let family = Preemptive
    let applicable = single_only
    let must_finish = true
    let batch = Avr.slices
  end)))

let bkp : engine =
  (module Make (Accumulate (struct
    let name = "bkp"
    let description = "Bansal-Kimbrel-Pruhs (single processor, must finish)"
    let family = Preemptive
    let applicable = single_only
    let must_finish = true
    let batch inst = Bkp.slices inst
  end)))

let mavr : engine =
  (module Make (Accumulate (struct
    let name = "mavr"
    let description = "multiprocessor Average Rate (must finish)"
    let family = Migratory
    let applicable = any_machines
    let must_finish = true
    let batch = Mavr.slices
  end)))

(* Partitioned: the pinning is genuinely per-arrival (greedy against the
   committed per-processor energies); the plan is per-CPU YDS under the
   committed pinning. *)
let partitioned : engine =
  (module Make (struct
    let name = "partitioned"
    let description = "non-migratory: greedy per-arrival pinning + per-CPU YDS"
    let family = Preemptive
    let applicable = any_machines

    type core = Partitioned.t

    let create_core (p : params) =
      Partitioned.create ~power:p.power ~machines:p.machines ()

    let arrive_core core (j : Job.t) =
      ignore (Partitioned.arrive core j);
      { job_id = j.id; accepted = true; lambda = None; planned_speed = None }

    let plan_core = Partitioned.current_plan
  end))

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

let all : engine list =
  [ pd; npd; oa; avr; bkp; cll; moa; mavr; mcll; partitioned ]

let name (e : engine) =
  let module E = (val e) in
  E.name

let description (e : engine) =
  let module E = (val e) in
  E.description

let family (e : engine) =
  let module E = (val e) in
  E.family

let applicable (e : engine) p =
  let module E = (val e) in
  E.applicable p

let find s =
  let s = String.lowercase_ascii s in
  List.find_opt (fun e -> name e = s) all

(* ------------------------------------------------------------------ *)
(* Packed states                                                        *)
(* ------------------------------------------------------------------ *)

type t =
  | Packed : (module ONLINE with type state = 's) * 's -> t

let start (e : engine) p =
  let module E = (val e) in
  Packed ((module E), E.create p)

let arrive (Packed ((module E), st)) j = E.arrive st j
let current_plan (Packed ((module E), st)) = E.current_plan st
let finalize = current_plan
let params_of (Packed ((module E), st)) = E.params_of st
let snapshot (Packed ((module E), st)) = E.snapshot st

let engine_of (Packed ((module E), _)) : engine = (module E)

let restore s =
  let parsed = parse_snapshot s in
  match find parsed.s_engine with
  | None ->
    failwith (Fmt.str "Online.restore: unknown engine %S" parsed.s_engine)
  | Some e ->
    let module E = (val e) in
    Packed ((module E), E.restore s)

(* ------------------------------------------------------------------ *)
(* The batch fold                                                       *)
(* ------------------------------------------------------------------ *)

type run_result = { schedule : Schedule.t; decisions : decision list }

let run ?delta (e : engine) (inst : Instance.t) =
  let t = start e (params_of_instance ?delta inst) in
  let decisions_rev = ref [] in
  Array.iter
    (fun j -> decisions_rev := arrive t j :: !decisions_rev)
    inst.jobs;
  { schedule = finalize t; decisions = List.rev !decisions_rev }
