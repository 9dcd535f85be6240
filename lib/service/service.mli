(** Sharded admission control: many online engines, one decision stream.

    The paper's PD algorithm is an online admission controller; PR 7 made
    its arrival path flat at tens of microseconds with bounded memory.
    This module is the payoff: a long-running, domain-parallel service
    that hash-partitions arriving jobs across [k] independent engine
    instances ({e shards}), runs the shards on OCaml 5 domains through
    the persistent {!Speedscale_obs.Pool} (per-shard ingest queues,
    batched dequeue) — or, with one worker in a process that may use
    one CPU, inline on the calling domain — and merges the per-shard
    decisions back into one
    {e deterministic} stream: events are emitted in global arrival order,
    and every decision is a pure function of its shard's arrival
    subsequence, so the merged stream is byte-identical run over run —
    at any worker count, under migration, and across kill/restore.

    Sharding model: the partition function routes each job to a shard;
    each shard is a full engine over its own (smaller) machine pool, à la
    [lib/multi/partitioned.ml] lifted one level — jobs never migrate
    between shards, which is what makes shard decisions independent and
    the whole service embarrassingly parallel.  The competitive-ratio
    price of that independence is measured by experiment E26 next to
    E22's migration-gap numbers.

    Failover rides the `online-snapshot v1` wire format: {!checkpoint}
    cuts a consistent per-shard snapshot set at an exact global sequence
    number (marker tasks flow through the ingest queues, so no barrier
    stalls the shards), commits it atomically ({!Checkpoint}), and
    {!restore} rebuilds the service from the manifest alone.  Live
    {!migrate} moves a shard to another domain by reassigning its ingest
    queue; the engine state stays where it is in the shared heap, so
    nothing is serialized and the move costs O(1). *)

open Speedscale_model
module Online := Speedscale_engine.Online

type t

type ev = {
  seq : int;  (** global arrival sequence number, dense from 0 *)
  shard : int;
  decision : Online.decision;
}
(** One merged-stream event.  Events come back in strictly increasing
    [seq] order across {!submit}/{!poll}/{!drain}. *)

val default_shard_fn : string * (Job.t -> int -> int)
(** [("id-mix-v1", fn)]: the partition function every service routes
    with — a fixed-key integer mix of [job.id] reduced mod the shard
    count.  Deterministic across runs and processes (no [Hashtbl.hash],
    no randomization). *)

val create :
  ?workers:int ->
  engine:Online.engine ->
  params:(int -> Online.params) ->
  shards:int ->
  unit ->
  t
(** [create ~engine ~params ~shards ()] starts [shards] engine instances
    (shard [i] gets [params i]).  [workers] defaults to
    [max 1 (min shards (cpus - 1))], where [cpus] is
    [Domain.recommended_domain_count ()] (the CPUs this process may use,
    so [taskset] and one-CPU cgroups count).

    With [workers = 1] and [cpus = 1] no domain is spawned: each shard's
    task runs on the calling domain, inside {!submit} (inline mode).  A
    worker domain there would only take turns with the caller on the one
    CPU.  Inline, the engine's minor collections run inside {!submit}
    too, so [create] grows the calling domain's minor heap to at least
    512k words (4 MB; it never shrinks it): half as many collections
    then land on a decision.  Otherwise the shards run on a fresh pool
    of [workers] domains, and each shard's ingest backlog is bounded
    (1024 tasks, {!Speedscale_obs.Pool}'s default) — {!submit} applies
    backpressure by draining finished decisions while a queue is full.
    The merged stream is the same in both modes.

    Arrivals are routed by {!default_shard_fn}, whose tag is recorded in
    checkpoints; {!restore} refuses a manifest whose tag differs.
    Raises [Invalid_argument] on [shards < 1], [workers < 1] or
    inapplicable params. *)

val restore :
  ?workers:int ->
  manifest:string ->
  unit ->
  t
(** Rebuild a service from a committed checkpoint: every shard engine is
    {!Online.restore}d from its snapshot, and the global sequence
    counter resumes from the manifest's [seq] — the caller re-feeds the
    input suffix from that point on.  Raises [Failure] on a missing or
    corrupt checkpoint ({!Checkpoint.load}) and on a manifest whose
    [shard-fn] tag is not {!default_shard_fn}'s. *)

val shards : t -> int

val workers : t -> int
(** Worker domains serving the shards; 1 in inline mode. *)

val seq : t -> int
(** Arrivals ingested so far, including those replayed into a restored
    state — i.e. the [seq] the next {!submit} will be assigned. *)

val engine : t -> Online.engine
val shard_params : t -> int -> Online.params

val worker_of : t -> shard:int -> int
(** The worker serving [shard]; always 0 in inline mode. *)

val submit : t -> Job.t -> ev list
(** Route one arrival to its shard and return any decisions that became
    emittable (possibly none — shards run asynchronously; possibly
    several; inline, always this arrival's own decision).  Jobs must be
    submitted in non-decreasing release order.  If the shard's engine
    rejects the job with an exception (duplicate id, decreasing
    release), that exception re-surfaces here or at a later drain point,
    in deterministic stream order — inline, always here.  Raises
    [Invalid_argument] after {!shutdown}. *)

val poll : t -> ev list
(** Non-blocking drain of every decision that is ready to emit. *)

val drain : t -> ev list
(** Block until every submitted arrival has been decided and emitted. *)

val checkpoint : t -> dir:string -> unit
(** Cut a checkpoint at the current {!seq} and commit it to [dir]
    (atomically — see {!Checkpoint}).  Marker tasks are enqueued behind
    each shard's pending arrivals, so the snapshot set is consistent
    with exactly the first [seq] submissions; the call blocks until all
    markers have executed, then writes from the calling thread. *)

val migrate : t -> shard:int -> worker:int -> unit
(** Live shard migration: hand the shard's ingest queue to [worker]
    ({!Speedscale_obs.Pool.assign}).  A batch already in flight finishes
    on the old domain, and the new one takes the queue only after it, so
    the shard's arrivals still run one at a time and in order.  The
    merged decision stream is unaffected, and the cost does not depend
    on the shard's history.  No-op when the shard already lives on
    [worker] (so always, in inline mode, for worker 0).  Raises
    [Invalid_argument] on a bad shard or worker index. *)

val finalize : t -> Schedule.t array
(** Quiesce the pool (inline: nothing to wait for) and return each
    shard's final schedule. *)

val shutdown : t -> unit
(** Drain, stop the workers and join their domains (inline: only mark
    the service shut, so later {!submit}s raise).  Idempotent. *)
