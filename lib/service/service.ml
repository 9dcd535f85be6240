open Speedscale_model
module Online = Speedscale_engine.Online
module Pool = Speedscale_obs.Pool

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                           *)
(* ------------------------------------------------------------------ *)

type ev = { seq : int; shard : int; decision : Online.decision }

(* Fixed-key integer mix (SplitMix-style finalizer, constants truncated
   to OCaml's 63-bit int) reduced mod the shard count.  Deliberately not
   [Hashtbl.hash]: the partition must be a stable, documented function —
   it is recorded in every checkpoint manifest and a restored service
   must route the input suffix exactly as the dead one would have. *)
let id_mix (j : Job.t) k =
  let h = j.id in
  let h = h lxor (h lsr 33) in
  let h = h * 0x2545F4914F6CDD1D in
  let h = h lxor (h lsr 29) in
  let h = h * 0x27D4EB2F165667C5 in
  let h = h lxor (h lsr 32) in
  (h land max_int) mod k

let id_mix_tag = "id-mix-v1"
let default_shard_fn = (id_mix_tag, id_mix)

(* ------------------------------------------------------------------ *)
(* Per-shard decision back-channel                                      *)
(* ------------------------------------------------------------------ *)

(* Workers push (seq, result) here in their shard's processing order;
   the merging thread pops.  One queue per shard, so FIFO order per
   shard equals submission order per shard. *)
module Outq = struct
  type 'a t = { m : Mutex.t; cv : Condition.t; q : 'a Queue.t }

  let create () =
    { m = Mutex.create (); cv = Condition.create (); q = Queue.create () }

  let push t x =
    Mutex.lock t.m;
    Queue.add x t.q;
    Condition.signal t.cv;
    Mutex.unlock t.m

  let try_pop t =
    Mutex.lock t.m;
    let r = Queue.take_opt t.q in
    Mutex.unlock t.m;
    r

  let pop t =
    Mutex.lock t.m;
    while Queue.is_empty t.q do
      Condition.wait t.cv t.m
    done;
    let r = Queue.take t.q in
    Mutex.unlock t.m;
    r
end

(* ------------------------------------------------------------------ *)
(* The service                                                          *)
(* ------------------------------------------------------------------ *)

(* Where the shards' tasks run.  [Inline] runs each task on the calling
   domain, inside the call that submits it: with one worker and one CPU,
   a worker domain would only take turns with the submitting thread on
   that CPU, paying two futex wake-ups and two context switches through
   Pool's mutex and condition variables per closed-loop decision.
   Spin-then-park in Pool was rejected for that case: on one CPU a
   spinning waiter burns the time slice the worker needs.  With a second
   CPU the worker domain overlaps the caller's parse and emit, so
   [Pooled] stays the mode whenever the process may use more than one
   CPU. *)
type exec = Inline of { mutable closed : bool } | Pooled of Pool.t

type t = {
  eng : Online.engine;
  k : int;
  shards : Online.t array;
      (* slot [s] is owned by whichever domain currently serves queue
         [s] (inline: the calling one); the merging thread touches it
         only after Pool.quiesce *)
  exec : exec;
  outs : (int * (Online.decision, exn) result) Outq.t array;
  pending : (int * int) Queue.t;  (* (seq, shard), submission order *)
  mutable next_seq : int;
  mutable ready_rev : ev list;  (* drained during internal blocking *)
}

let shards t = t.k
let workers t = match t.exec with Inline _ -> 1 | Pooled p -> Pool.workers p
let seq t = t.next_seq
let engine t = t.eng
let shard_params t i = Online.params_of t.shards.(i)

let check_shard fn t shard =
  if shard < 0 || shard >= t.k then
    invalid_arg (Fmt.str "Service.%s: bad shard %d" fn shard)

let worker_of t ~shard =
  match t.exec with
  | Inline _ ->
    check_shard "worker_of" t shard;
    0
  | Pooled p -> Pool.worker_of p ~queue:shard

(* Inline, a minor collection runs inside the [submit] that triggers it.
   PD's are dear: on a diurnal shard of 4 machines, Runtime_events read
   ~70 us of minor GC (mostly the remembered set its interval records
   build up) and ~95 us of major slice per collection.  At OCaml's
   default 256k-word minor heap that shard collects every ~200 arrivals,
   on 0.5% of decisions, and host preemptions slow another 0.2-0.5%.  So
   the closed-loop p99 sat where those meet PD's own tail, and read
   20-40 us in one round and 50-77 us in the next as the host's noise
   went.  Twice the default heap halves the pause rate, and the p99
   reads PD's tail; each pause doubles, to about what one collection
   cost on the pool path (~220 us, with two domains to stop).  The
   calling domain's heap is only ever grown. *)
let inline_minor_heap_words = 1 lsl 19

let grow_minor_heap () =
  let g = Gc.get () in
  if g.minor_heap_size < inline_minor_heap_words then
    Gc.set { g with minor_heap_size = inline_minor_heap_words }

let make ?workers ~engine ~next_seq states =
  let k = Array.length states in
  let cpus = Domain.recommended_domain_count () in
  let workers =
    match workers with Some w -> w | None -> max 1 (min k (cpus - 1))
  in
  let exec =
    if workers = 1 && cpus = 1 then begin
      grow_minor_heap ();
      Inline { closed = false }
    end
    else Pooled (Pool.create ~workers ~queues:k ())
  in
  {
    eng = engine;
    k;
    shards = states;
    exec;
    outs = Array.init k (fun _ -> Outq.create ());
    pending = Queue.create ();
    next_seq;
    ready_rev = [];
  }

let create ?workers ~engine ~params ~shards () =
  if shards < 1 then invalid_arg "Service.create: shards must be >= 1";
  let states = Array.init shards (fun i -> Online.start engine (params i)) in
  make ?workers ~engine ~next_seq:0 states

let restore ?workers ~manifest () =
  let mf, snaps = Checkpoint.load ~manifest in
  if not (String.equal mf.Checkpoint.shard_fn id_mix_tag) then
    failwith
      (Fmt.str
         "Service.restore: manifest partitions with %s, this service with %s \
          — restoring would route the suffix differently"
         mf.Checkpoint.shard_fn id_mix_tag);
  let engine =
    match Online.find mf.Checkpoint.engine with
    | Some e -> e
    | None ->
      failwith
        (Fmt.str "Service.restore: unknown engine %S" mf.Checkpoint.engine)
  in
  let states = Array.map Online.restore snaps in
  make ?workers ~engine ~next_seq:mf.Checkpoint.seq states

(* ---------------- merged-stream emission ---------------- *)

(* Emit the oldest submitted-but-unemitted decision, blocking until its
   shard has processed it.  Progress is guaranteed: the pending head is
   the oldest task of its shard's queue, and that shard's worker drains
   its queue in order regardless of what the merging thread does. *)
let emit_block t =
  let sq, s = Queue.pop t.pending in
  let sq', r = Outq.pop t.outs.(s) in
  assert (sq = sq');
  match r with
  | Ok d ->
    let e = { seq = sq; shard = s; decision = d } in
    t.ready_rev <- e :: t.ready_rev;
    e
  | Error e -> raise e

let try_emit t =
  match Queue.peek_opt t.pending with
  | None -> false
  | Some (_, s) -> (
    match Outq.try_pop t.outs.(s) with
    | None -> false
    | Some (sq', r) ->
      let sq, _ = Queue.pop t.pending in
      assert (sq = sq');
      (match r with
      | Ok d -> t.ready_rev <- { seq = sq; shard = s; decision = d } :: t.ready_rev
      | Error e -> raise e);
      true)

let flush t =
  let evs = List.rev t.ready_rev in
  t.ready_rev <- [];
  evs

let poll t =
  while try_emit t do
    ()
  done;
  flush t

(* Place one task on a shard's ingest queue, draining the merged stream
   into [ready_rev] whenever the queue is full (backpressure).  Inline,
   the task runs here, before the caller records it as pending. *)
let submit_task t s task =
  match t.exec with
  | Inline { closed = true } -> invalid_arg "Service: service is shut down"
  | Inline _ -> task ()
  | Pooled p ->
    while not (Pool.submit p ~queue:s task) do
      ignore (emit_block t)
    done

let submit t j =
  let s = id_mix j t.k in
  let sq = t.next_seq in
  let task () =
    (* shards.(s) is mutated only by tasks on ingest queue s, which the
       pool serializes on one domain at a time; the merging thread reads
       it only after Pool.quiesce *)
    let r =
      match Online.arrive t.shards.(s) j with
      | d -> Ok d
      | exception e -> Error e
    in
    Outq.push t.outs.(s) (sq, r)
  in
  submit_task t s task;
  t.next_seq <- sq + 1;
  Queue.add (sq, s) t.pending;
  poll t

let drain t =
  while not (Queue.is_empty t.pending) do
    ignore (emit_block t)
  done;
  flush t

(* ---------------- checkpoint and migration ---------------- *)

(* A little one-shot mailbox for marker results. *)
module Cell = struct
  type 'a t = { m : Mutex.t; cv : Condition.t; mutable v : 'a option }

  let create () = { m = Mutex.create (); cv = Condition.create (); v = None }

  let put c x =
    Mutex.lock c.m;
    c.v <- Some x;
    Condition.signal c.cv;
    Mutex.unlock c.m

  let get c =
    Mutex.lock c.m;
    while c.v = None do
      Condition.wait c.cv c.m
    done;
    let v = Option.get c.v in
    Mutex.unlock c.m;
    v
end

let checkpoint t ~dir =
  let at = t.next_seq in
  let cells = Array.init t.k (fun _ -> Cell.create ()) in
  (* Markers ride the ingest queues behind every arrival submitted so
     far, so shard [s]'s snapshot covers exactly its share of the first
     [at] submissions — a consistent cut with no global barrier. *)
  for s = 0 to t.k - 1 do
    submit_task t s (fun () ->
        (* queue-confined: the marker runs on shard s's owning domain *)
        Cell.put cells.(s) (Online.snapshot t.shards.(s)))
  done;
  let snaps = Array.map Cell.get cells in
  Checkpoint.write ~dir ~engine:(Online.name t.eng) ~shard_fn:id_mix_tag ~seq:at
    snaps

(* The shard's state is an ordinary heap value; what confines it to one
   domain is Pool's per-queue serialization, which holds across
   [Pool.assign]: a batch in flight finishes on the old domain, and the
   new owner cannot take the queue until that batch's [running] flag
   clears under the pool mutex (which also orders the state's writes
   before the new domain's reads).  So moving the queue moves the shard,
   in O(1) whatever its history. *)
let migrate t ~shard ~worker =
  check_shard "migrate" t shard;
  match t.exec with
  | Inline _ ->
    if worker <> 0 then
      invalid_arg (Fmt.str "Service.migrate: bad worker index %d" worker)
  | Pooled p -> Pool.assign p ~queue:shard ~worker

(* ---------------- end of stream ---------------- *)

let finalize t =
  (match t.exec with Inline _ -> () | Pooled p -> Pool.quiesce p);
  Array.map Online.finalize t.shards

let shutdown t =
  match t.exec with Inline r -> r.closed <- true | Pooled p -> Pool.shutdown p
