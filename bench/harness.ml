(* Shared helpers for the experiment harness.

   Every print helper routes through a domain-local sink: outside a task it
   is plain stdout, inside [with_task] it is a per-task buffer.  That is
   what lets the runner fan experiments out across domains and still merge
   their output (and their structured records) in deterministic order. *)

open Speedscale_model
module Obs = Speedscale_obs

(* ------------------------------------------------------------------ *)
(* Output sink and record collection                                    *)
(* ------------------------------------------------------------------ *)

type ctx = {
  buf : Buffer.t;
  mutable recs : Obs.Record.t list;  (* newest first *)
  mutable current : string;  (* experiment id set by [section] *)
  mutable metrics : (string * float) list;  (* newest first *)
  mutable counters : (string * int) list;
}

let ctx_key : ctx option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let out_str s =
  match Domain.DLS.get ctx_key with
  | Some c -> Buffer.add_string c.buf s
  | None -> Stdlib.print_string s

let out fmt = Printf.ksprintf out_str fmt

(* Shadows Stdlib.print_string for every [open Harness] user, so existing
   experiment code redirects without edits. *)
let print_string = out_str

let section id title =
  (match Domain.DLS.get ctx_key with
  | Some c -> c.current <- id
  | None -> ());
  out "\n=== %s: %s ===\n\n" id title

let note fmt =
  Printf.ksprintf
    (fun s ->
      out_str s;
      out_str "\n")
    fmt

(* Same bytes as Speedscale_util.Tab.print ("%s@.@."), sink-redirected. *)
module Tab = struct
  include Speedscale_util.Tab

  let print t =
    out_str (render t);
    out_str "\n\n"
end

let metric name value =
  match Domain.DLS.get ctx_key with
  | Some c -> c.metrics <- (name, value) :: c.metrics
  | None -> ()

let counter name value =
  match Domain.DLS.get ctx_key with
  | Some c -> c.counters <- (name, value) :: c.counters
  | None -> ()

let add_record r =
  match Domain.DLS.get ctx_key with
  | Some c -> c.recs <- r :: c.recs
  | None -> ()

let verdict ~expected ok =
  out "expected shape: %s -> %s\n" expected
    (if ok then "CONFIRMED" else "NOT CONFIRMED");
  match Domain.DLS.get ctx_key with
  | Some c ->
    let r =
      Obs.Record.make ~id:c.current ~metrics:(List.rev c.metrics)
        ~counters:(List.rev c.counters) ~verdict:ok Obs.Record.Experiment
    in
    c.metrics <- [];
    c.counters <- [];
    c.recs <- r :: c.recs
  | None -> ()

type task_result = {
  task_id : string;
  output : string;  (* everything the task printed, in order *)
  records : Obs.Record.t list;  (* emission order, wall-clock attached *)
  wall_s : float;
}

let with_task id (f : unit -> unit) : task_result =
  (* slint: allow dls-misuse -- audited save/restore: the ambient ctx is snapshotted here and restored after f (), including on exceptions *)
  let saved = Domain.DLS.get ctx_key in
  let c =
    { buf = Buffer.create 4096; recs = []; current = id; metrics = [];
      counters = [] }
  in
  Domain.DLS.set ctx_key (Some c);
  let t0 = Unix.gettimeofday () in
  (match f () with
  | () -> Domain.DLS.set ctx_key saved
  | exception e ->
    Domain.DLS.set ctx_key saved;
    raise e);
  let wall_s = Unix.gettimeofday () -. t0 in
  let records = List.rev_map (Obs.Record.with_wall ~wall_s) c.recs in
  { task_id = id; output = Buffer.contents c.buf; records; wall_s }

(* ------------------------------------------------------------------ *)
(* Instance families                                                    *)
(* ------------------------------------------------------------------ *)

(* Standard random valuable-job family used across experiments. *)
let random_instance ~alpha ~machines ~seed ~n =
  let power = Power.make alpha in
  Speedscale_workload.Generate.random ~power ~machines ~seed ~n
    ~arrivals:(Poisson (float_of_int machines))
    ~sizes:(Uniform_size (0.3, 2.5))
    ~laxity:(0.4, 2.5)
    ~values:(Uniform_value (0.2, 20.0))

(* Energy-only variant (infinite values). *)
let random_must_finish ~alpha ~machines ~seed ~n =
  Instance.with_values
    (random_instance ~alpha ~machines ~seed ~n)
    (fun _ -> Float.infinity)
