(** The reusable primal-dual engine behind {!Pd}.

    Nguyen Kim Thang's "Lagrangian Duality based Algorithms in Online
    Scheduling" observes that the paper's accept/reject + λ-pricing loop
    is an instance of a general recipe: maintain a relaxed assignment of
    the committed work, price each arrival by the marginal cost of
    squeezing it in, accept iff the price stays below the job's worth,
    and read a dual certificate off the multipliers.  The objective is
    the paper's, energy plus lost value ({!Energy_value}: the
    price↔speed conversions [μ = δ·w_j·P'(s)], capped at the job's value
    [v_j]).  What varies is the {{!RELAXATION} relaxation} — how
    committed work is represented, refined, priced, and turned into a
    schedule ({!Interval} is the paper's atomic-interval timeline with
    Chen water-filling; [Npd]'s contiguous-slot booking is a second
    instance).

    {!Make} turns a relaxation into the generic online loop: admission
    checks (duplicate ids, release order), bounded-memory eviction of
    the dup-id table, and the rejected list the final schedule needs.
    Work counters live where the work is done: the relaxation keeps its
    probes, intervals, breakpoints and bisections as cumulative totals,
    and {!Make} adds only the arrival count and the dup-id table's
    gauges.  An arrival's own work is the difference of two
    {!Make.stats} reads around it.  It keeps no other history: the dual
    certificate is {!certificate}, a function of the decisions the loop
    returns (each carries its job and its multiplier), evaluated the way
    E11's duality chain does.  {!Pd} instantiates [Make (Interval)] and
    is decision-bit-identical to the pre-framework code (the qcheck
    equivalence suite in [test_core.ml] pins this); the non-preemptive
    engine [Npd] swaps the relaxation. *)

open Speedscale_model

(* ------------------------------------------------------------------ *)
(* Numerics shared by relaxations                                       *)
(* ------------------------------------------------------------------ *)

val boundary_tol : float
(** Boundary dedup tolerance (DESIGN.md section 5). *)

val same_boundary : float -> float -> bool
(** Two instants within {!boundary_tol} (absolute + relative). *)

val safely_past : last_release:float -> float -> bool
(** Whether a boundary trails the newest release by enough margin that no
    future boundary can land at, below, or within snapping distance of
    it — the GC flush criterion (DESIGN.md section 5). *)

(* ------------------------------------------------------------------ *)
(* Vocabulary                                                           *)
(* ------------------------------------------------------------------ *)

type stats = {
  arrivals : int;
  probes : int;
  intervals : int;
  breakpoints : int;
  bisections : int;
}

type mem_stats = {
  live_intervals : int;
  max_live_intervals : int;
  table_entries : int;
  max_table_entries : int;
  flushed_intervals : int;
  evicted_jobs : int;
  finished_slices : int;
}

type decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
}

(* ------------------------------------------------------------------ *)
(* Flushed-slice accumulator (shared by relaxations with GC)            *)
(* ------------------------------------------------------------------ *)

module Slab : sig
  type t

  val create : unit -> t
  val length : t -> int
  val push : t -> Schedule.slice -> unit

  val push_slices :
    t -> Speedscale_chen.Chen.t -> t0:float -> t1:float -> unit
  (** [push_slices s c ~t0 ~t1] pushes [c]'s slices on [[t0, t1)] in
      {!Speedscale_chen.Chen.write_slices} order — the reverse of
      {!Speedscale_chen.Chen.slices} — with no slice record or list
      built. *)

  val schedule :
    t ->
    machines:int ->
    rejected:int list ->
    room:int ->
    (float array -> int -> int) ->
    Schedule.t
  (** [schedule s ~machines ~rejected ~room write] copies the pushed
      records, in push order, into one fresh buffer with [room] free
      slots after them; [write buf pos] fills up to [room] of those from
      slot [pos] on and returns the next free slot.  The buffer's record
      order is then reversed in place and it becomes the schedule
      ({!Schedule.of_records}).  [s] itself is unchanged. *)
end

(* ------------------------------------------------------------------ *)
(* The objective and the relaxation contract                            *)
(* ------------------------------------------------------------------ *)

(** The paper's objective: energy plus the value of unfinished jobs. *)
module Energy_value : sig
  type t

  val make :
    ?delta:float -> err:string -> power:Power.t -> machines:int -> unit -> t
  (** [delta] defaults to [Power.delta_star].  Raises [Invalid_argument]
      (prefixed with [err]) for [machines < 1] or [delta <= 0]. *)

  val power : t -> Power.t
  val machines : t -> int
  val delta : t -> float

  val speed_of_price : t -> workload:float -> float -> float
  (** The speed at which the marginal price [δ·w·P'(s)] of the job
      equals the given price level. *)

  val price_of_speed : t -> workload:float -> float -> float
  (** Inverse of {!speed_of_price}. *)
end

type verdict =
  | Reject of float  (** the job cannot finish below this price *)
  | Accept of float * (int * float) list
      (** final common price and the committed public assignment *)

module type RELAXATION = sig
  type t

  val create : Energy_value.t -> err:string -> gc:bool -> t

  val prepare : t -> Job.t -> last_release:float -> unit
  (** Timeline refinement (and, under gc, flushing of the wholly-past
      prefix) before pricing the arrival. *)

  val price : t -> Job.t -> reference:bool -> verdict
  (** Price the arrival against the committed state and, on acceptance,
      commit its assignment.  [reference] selects the relaxation's slow
      oracle solver where it has one.  May raise [Failure] when a
      must-finish job cannot be placed. *)

  val schedule : t -> rejected:int list -> Schedule.t

  val stats : t -> stats
  (** The relaxation's cumulative work over every {!price} call so far,
      including one that raised.  [arrivals] is [0]: {!Make} owns it. *)

  val mem : t -> mem_stats
  (** Residency gauges.  [table_entries], [max_table_entries] and
      [evicted_jobs] are [0]: {!Make} owns the dup-id table. *)
end

val certificate : power:Power.t -> machines:int -> decision list -> float
(** The paper's dual bound [g(λ̃)] (weak duality, Theorem 2) over the
    jobs and multipliers of the given decisions (one run's, so ids are
    distinct; any order): a certified lower bound on the optimal cost of
    the instance those jobs make up.
    [0] for no decisions.  Valid for any instantiation whose feasible
    schedules are contained in the preemptive-migratory relaxation (both
    {!Pd} and the non-preemptive [Npd]), and the same with or without gc,
    since it reads nothing but the decisions. *)

(* ------------------------------------------------------------------ *)
(* The generic accept/reject + λ-pricing loop                           *)
(* ------------------------------------------------------------------ *)

module Make (R : RELAXATION) : sig
  type t

  val create : ?gc:bool -> err:string -> Energy_value.t -> t
  (** [err] prefixes every raised message (["Pd"], ["Npd"], …). *)

  val obj : t -> Energy_value.t
  val relax : t -> R.t
  val arrive : t -> Job.t -> decision
  val arrive_reference : t -> Job.t -> decision
  val schedule : t -> Schedule.t
  val stats : t -> stats
  (** {!RELAXATION.stats} with [arrivals]: the arrivals admitted past
      the duplicate-id and release-order checks, one whose [price]
      raised included. *)

  val mem : t -> mem_stats
  (** {!RELAXATION.mem} with the dup-id table's gauges. *)
end

(* ------------------------------------------------------------------ *)
(* The default relaxation: atomic intervals + Chen water-filling        *)
(* ------------------------------------------------------------------ *)

module Interval : sig
  include RELAXATION

  (** Beyond the [RELAXATION] contract, the interval timeline exposes its
      state for {!Pd}'s inspection API: *)

  val boundaries : t -> float array
  val interval_loads : t -> (int * float) list array
end
