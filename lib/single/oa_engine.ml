open Speedscale_util
open Speedscale_model

type admission = now:float -> plan:Job.t list -> candidate:Job.t -> bool

type verdict = { admitted : bool; planned_speed : float option }

type admission_sp = now:float -> plan:Job.t list -> candidate:Job.t -> verdict

type plan_fn = now:float -> Job.t list -> Schedule.slice list

let work_eps = Feq.tol_snap

(* Remaining-work view of a job at time [now]. *)
let adjusted ~now (j : Job.t) ~remaining =
  Job.make ~id:j.id ~release:now ~deadline:j.deadline ~workload:remaining
    ~value:j.value

let clip_slices ~until slices =
  List.filter_map
    (fun (s : Schedule.slice) ->
      if s.t0 >= until then None
      else
        (* A slice ending within tolerance of the cut would survive as a
           zero-width sliver (its work is float dust); drop it and leave
           the dust in the remaining-work table for the next plan. *)
        let t1 = Float.min s.t1 until in
        if Feq.approx s.t0 t1 then None
        else if s.t1 <= until then Some s
        else Some { s with t1 = until })
    slices

type t = {
  machines : int;
  plan : plan_fn;
  admit : admission_sp;
  must_finish : bool;
  mutable now : float;  (* neg_infinity before the first arrival *)
  remaining : (int, float) Hashtbl.t;  (* accepted unfinished id -> work *)
  accepted : (int, Job.t) Hashtbl.t;  (* id -> stored (possibly viewed) job *)
  seen_ids : (int, unit) Hashtbl.t;
  mutable rejected_rev : int list;
  (* Committed slices as [Schedule] records in slots [0, n_executed):
     oldest batch first, each batch in reverse plan order, so the store
     read backwards is the schedule's order (newest batch first, each in
     plan order). *)
  mutable executed : float array;
  mutable n_executed : int;
}

let admit_all ~now:_ ~plan:_ ~candidate:_ = { admitted = true; planned_speed = None }

let start ~machines ~plan ?(admit = admit_all) ?(must_finish = false) () =
  if machines < 1 then invalid_arg "Oa_engine.start: machines must be >= 1";
  {
    machines;
    plan;
    admit;
    must_finish;
    now = Float.neg_infinity;
    remaining = Hashtbl.create 16;
    accepted = Hashtbl.create 16;
    seen_ids = Hashtbl.create 16;
    rejected_rev = [];
    executed = [||];
    n_executed = 0;
  }

(* The accepted jobs still to run, as remaining-work views at [now].  A
   job whose deadline is already at or before [now] is out: the plan
   executed up to it may leave float dust above the cut below (2e-9 of
   work on an mOA datacenter stream), and its view would be released
   after its deadline. *)
let plan_jobs t ~now =
  Hashtbl.fold
    (fun id rem acc ->
      let j = Hashtbl.find t.accepted id in
      if j.deadline > now && rem > work_eps *. (1.0 +. j.workload) then
        adjusted ~now j ~remaining:rem :: acc
      else acc)
    t.remaining []
  |> List.stable_sort Job.compare_release

(* Execute the standing plan on [from, until); [None] means to the end. *)
let execute t ~from ~until =
  match plan_jobs t ~now:from with
  | [] -> ()
  | plan ->
    let planned = t.plan ~now:from plan in
    let executed =
      match until with
      | None -> planned
      | Some te -> clip_slices ~until:te planned
    in
    List.iter
      (fun (s : Schedule.slice) ->
        let work = (s.t1 -. s.t0) *. s.speed in
        let prev = Hashtbl.find t.remaining s.job in
        Hashtbl.replace t.remaining s.job (Float.max 0.0 (prev -. work)))
      executed;
    let k = List.length executed and n = t.n_executed in
    let w = Schedule.slice_words in
    if w * (n + k) > Array.length t.executed then begin
      let grown = Array.create_float (w * max (n + k) (2 * n)) in
      Array.blit t.executed 0 grown 0 (w * n);
      t.executed <- grown
    end;
    List.iteri
      (fun i s -> Schedule.write_slice t.executed (n + k - 1 - i) s)
      executed;
    t.n_executed <- n + k

let step t (j : Job.t) =
  if Hashtbl.mem t.seen_ids j.id then
    invalid_arg (Fmt.str "Oa_engine.step: duplicate job id %d" j.id);
  if j.release < t.now then
    invalid_arg
      (Fmt.str "Oa_engine.step: job %d released at %g before current time %g"
         j.id j.release t.now);
  (* before the first arrival nothing is accepted, so this executes
     nothing *)
  if j.release > t.now then execute t ~from:t.now ~until:(Some j.release);
  t.now <- j.release;
  let stored =
    if t.must_finish then
      Job.make ~id:j.id ~release:j.release ~deadline:j.deadline
        ~workload:j.workload ~value:Float.infinity
    else j
  in
  Hashtbl.replace t.seen_ids j.id ();
  let candidate = adjusted ~now:t.now stored ~remaining:stored.workload in
  let plan = plan_jobs t ~now:t.now @ [ candidate ] in
  let verdict = t.admit ~now:t.now ~plan ~candidate in
  if verdict.admitted then begin
    Hashtbl.replace t.accepted stored.id stored;
    Hashtbl.replace t.remaining stored.id stored.workload
  end
  else t.rejected_rev <- stored.id :: t.rejected_rev;
  verdict

let current_plan t =
  let tail =
    match plan_jobs t ~now:t.now with
    | [] -> []
    | plan -> t.plan ~now:t.now plan
  in
  (* the store, then the tail reversed, all read backwards: the tail in
     plan order, then the executed batches newest first *)
  let k = List.length tail and n = t.n_executed in
  let buf = Array.create_float (Schedule.slice_words * (n + k)) in
  Array.blit t.executed 0 buf 0 (Schedule.slice_words * n);
  List.iteri (fun i s -> Schedule.write_slice buf (n + k - 1 - i) s) tail;
  Schedule.rev_records buf (n + k);
  Schedule.of_records ~machines:t.machines ~rejected:t.rejected_rev buf (n + k)

let run ?(admit = fun ~now:_ ~plan:_ ~candidate:_ -> true) (inst : Instance.t)
    =
  if inst.machines <> 1 then
    invalid_arg "Oa_engine.run: single-processor algorithm (machines = 1)";
  let t =
    start ~machines:1
      ~plan:(fun ~now:_ jobs -> Yds.schedule_slices jobs)
      ~admit:(fun ~now ~plan ~candidate ->
        { admitted = admit ~now ~plan ~candidate; planned_speed = None })
      ()
  in
  Array.iter (fun j -> ignore (step t j)) inst.jobs;
  current_plan t
