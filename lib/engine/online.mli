(** One interface for every online algorithm in the repository.

    The paper's whole point is {e online} decision-making: an algorithm
    commits at each release time [r_j], knowing only the jobs released so
    far.  This module makes that contract structural.  An engine is a
    first-class module of type {!ONLINE}: mutable state created from
    {!params}, driven one {!arrive} at a time, readable between arrivals
    as a {!current_plan}, and serializable with {!snapshot}/{!restore}
    (the checkpoint primitive sharded or restartable serving needs).  The
    batch entry points of the library ([Driver], [psched run]) are thin
    folds of [arrive] over the release-ordered jobs — online algorithms
    provably never see future jobs, because nothing ever hands them more
    than one arrival.

    The registry {!all} covers the ten online algorithms: PD (the
    paper's primal-dual scheduler), NPD (its non-preemptive sibling),
    the single-processor classics OA, AVR, BKP and CLL, and the
    multiprocessor baselines mOA, mAVR, mCLL and partitioned.  Offline
    algorithms (YDS, OPT-energy, OPT-exact, OPT-migratory) are
    deliberately absent — they cannot be expressed as per-arrival update
    rules, which is the point of keeping them out.

    Each engine declares the scheduling-model {!family} its plans live
    in (preemptive, non-preemptive, or migratory) — `psched engines`
    renders the registry grouped by it.  Orthogonally, three {e
    implementation} families sit behind the one signature:

    + {e native incremental} — PD wraps [Pd.arrive], whose state (atomic
      intervals, committed loads, multipliers) evolves per arrival;
    + {e replan-execute} — OA, CLL, mOA and mCLL drive the
      [Oa_engine] core: execute the standing plan up to the arrival,
      run the admission test, re-plan the remaining work;
    + {e replan-from-scratch} — AVR, BKP, mAVR and partitioned re-derive
      their full plan from the arrival prefix after each job (their plans
      are memoryless density profiles or fixed pinnings, so executing
      incrementally and replanning from scratch coincide; the admission
      decisions are still made strictly online).

    Every engine's decisions on a prefix are byte-identical whether or
    not a suffix exists (the qcheck prefix-stability property in
    [test_engine_online] pins this for each registry entry). *)

open Speedscale_model

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                           *)
(* ------------------------------------------------------------------ *)

type params = {
  power : Power.t;
  machines : int;  (** [m >= 1] *)
  delta : float option;
      (** PD's rejection parameter [δ]; [None] means the engine default
          ([δ* = α^(1-α)] for PD).  Ignored by every other engine. *)
}

val params : ?delta:float -> power:Power.t -> machines:int -> unit -> params
(** Raises [Invalid_argument] if [machines < 1]. *)

val params_of_instance : ?delta:float -> Instance.t -> params
(** The instance's power and machine count. *)

type decision = {
  job_id : int;
  accepted : bool;
  lambda : float option;
      (** the price multiplier fixed at arrival, for engines that price
          admissions (PD: [λ̃_j]); [None] elsewhere *)
  planned_speed : float option;
      (** the candidate's speed in the admission-time plan, where the
          engine computed one (PD, CLL, mCLL); [None] elsewhere *)
}

type family = Preemptive | Non_preemptive | Migratory
(** The scheduling model an engine's plans live in: may a job be paused
    and resumed ([Preemptive]), must it run as one contiguous slot on
    one machine ([Non_preemptive]), or may it additionally move between
    machines ([Migratory])?  Single-machine engines are [Preemptive];
    [partitioned] pins jobs but preempts within a machine. *)

val family_name : family -> string
(** ["preemptive"], ["non-preemptive"], ["migratory"] — the spelling
    `psched engines` prints. *)

(* ------------------------------------------------------------------ *)
(* The engine signature                                                 *)
(* ------------------------------------------------------------------ *)

module type ONLINE = sig
  val name : string
  (** Registry key; also the [--algorithm] spelling (case-insensitive). *)

  val description : string

  val family : family
  (** The scheduling model the engine's plans live in. *)

  val applicable : params -> bool
  (** E.g. the single-processor classics require [machines = 1]. *)

  type state
  (** Mutable online state. *)

  val create : params -> state

  val arrive : state -> Job.t -> decision
  (** Process one arrival.  Jobs must arrive in non-decreasing release
      order with distinct ids; raises [Invalid_argument] otherwise.  An
      arrival the engine itself refuses (e.g. PD's [Failure] for a
      must-finish job it cannot place) is not recorded, and the state
      then raises [Invalid_argument] for every later arrival: the engine
      may have kept part of the refused job, which its {!snapshot} does
      not hold. *)

  val current_plan : state -> Schedule.t
  (** Committed past plus the standing plan for all known remaining work,
      as one schedule.  Pure: reading it between arrivals does not
      advance the state. *)

  val params_of : state -> params
  (** The parameters the state was created with (after {!restore}: the
      parameters recorded in the snapshot). *)

  val snapshot : state -> string
  (** Serialize the online state as plain text (format: see
      doc/ENGINE.md).  Engines are deterministic functions of their
      arrival prefix, so the snapshot records [params] plus the arrivals
      seen so far; {!restore} replays them. *)

  val restore : string -> state
  (** Inverse of {!snapshot}: the restored state processes further
      arrivals identically to the original while the original has
      refused no arrival; after a refusal, the snapshot is the state
      before it, which still takes arrivals.  Raises
      [Failure] on malformed input or an [engine] header naming a
      different engine.  Values the constructors refuse (a job with
      [deadline <= release], [alpha <= 1], [machines < 1]) and a replay
      the arrival checks refuse are malformed input too: they raise
      [Failure], never [Invalid_argument]. *)
end

type engine = (module ONLINE)

(* ------------------------------------------------------------------ *)
(* Registry                                                             *)
(* ------------------------------------------------------------------ *)

val pd : engine
(** The paper's algorithm, [α^α]-competitive (Theorem 3). *)

val npd : engine
(** Non-preemptive primal-dual: the same λ-pricing admission over
    contiguous single-machine slots ([Npd]); no worst-case guarantee is
    claimed (E27 measures it). *)

val oa : engine
(** Optimal Available (single processor, must-finish view). *)

val avr : engine
(** Average Rate (single processor, must-finish view). *)

val bkp : engine
(** Bansal–Kimbrel–Pruhs (single processor, must-finish view). *)

val cll : engine
(** Chan–Lam–Li: OA + speed-threshold rejection. *)

val moa : engine
(** Multiprocessor Optimal Available (must-finish view). *)

val mavr : engine
(** Multiprocessor Average Rate (must-finish view). *)

val mcll : engine
(** Naive multiprocessor CLL (the E22 strawman). *)

val partitioned : engine
(** Non-migratory: greedy per-arrival pinning + per-CPU YDS. *)

val all : engine list
(** Every engine above, PD first. *)

val name : engine -> string
val description : engine -> string
val family : engine -> family
val applicable : engine -> params -> bool

val find : string -> engine option
(** Case-insensitive lookup by {!name}. *)

(* ------------------------------------------------------------------ *)
(* Packed states: driving an engine without knowing its state type      *)
(* ------------------------------------------------------------------ *)

type t
(** An engine paired with one of its states. *)

val start : engine -> params -> t
(** Raises [Invalid_argument] when the engine is not {!applicable}. *)

val arrive : t -> Job.t -> decision
val current_plan : t -> Schedule.t

val finalize : t -> Schedule.t
(** The schedule after the last arrival: {!current_plan}. *)

val params_of : t -> params
(** The parameters behind the packed state (post-{!restore}: the ones
    recorded in the snapshot) — what sharded serving needs to compute
    per-shard summaries without carrying params out of band. *)

val snapshot : t -> string
val engine_of : t -> engine

val restore : string -> t
(** Reads the [engine <name>] header and dispatches to that engine's
    [restore].  Raises [Failure] on an unknown engine or malformed
    snapshot. *)

(* ------------------------------------------------------------------ *)
(* The batch fold                                                       *)
(* ------------------------------------------------------------------ *)

type run_result = {
  schedule : Schedule.t;
  decisions : decision list;  (** in arrival order *)
}

val run : ?delta:float -> engine -> Instance.t -> run_result
(** Feed the instance's jobs in release order and finalize — the only
    way batch code consumes an online engine, which is what makes the
    online-ness structural. *)
