(** NPD — the non-preemptive sibling of {!Pd}, built on the same
    {!Pd_core} framework with the relaxation module swapped.

    Model (Cohen-Addad, Li, Mathieu and Milis, "Energy-efficient
    algorithms for non-preemptive speed-scaling"): an accepted job must
    run in {e one contiguous time slot on one machine} at constant
    speed — no preemption, no migration.  The admission rule is the same
    λ-pricing as PD's: when job [j] arrives, every maximal free gap of
    every machine intersected with [[r_j, d_j)] yields one candidate
    slot (using the whole gap is optimal within a gap, since
    [ℓ · P(w/ℓ)] strictly decreases in [ℓ] for [α > 1]); the candidate's
    price is the marginal energy cost [δ · w_j · P'(w_j / ℓ)] at the
    slot speed.  The job takes the cheapest candidate iff its price is
    at most [v_j], else it is rejected with [λ_j = v_j].

    Because every non-preemptive schedule is feasible for the preemptive
    relaxation, the dual bound [g(λ̃)] from {!certificate} (PD's
    {!Pd_core.certificate}, read off the decisions) remains a certified
    lower bound on the {e preemptive} optimum — and hence
    also on the (larger) non-preemptive optimum.  Unlike PD, no
    constant-factor guarantee is claimed for this greedy (the
    non-preemptive problem is strongly NP-hard even offline); experiment
    E27 measures the gap against PD and the dual bound empirically.

    The two solver flavours of the framework coincide here (the
    candidate set is finite and the price is closed-form), so there is
    no [arrive_reference].  [~gc:true] bounds memory exactly as in PD:
    wholly-past slots are flushed into a finished-slice accumulator and
    expired ids leave the dup-id table; {!certificate}, which reads only
    the decisions, is unaffected. *)

open Speedscale_model

type t
(** Mutable online state. *)

val create :
  ?delta:float ->
  ?gc:bool ->
  power:Power.t ->
  machines:int ->
  unit ->
  t
(** Same conventions as {!Pd.create}: [delta] defaults to
    [Power.delta_star]; raises [Invalid_argument] (prefixed ["Npd"]) for
    [delta <= 0] or [machines < 1]. *)

type decision = Pd_core.decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;
  planned_speed : float;
  assignment : (int * float) list;
      (** for NPD: [[(machine, workload)]] of the booked slot (empty for
          rejected jobs) *)
}

val arrive : t -> Job.t -> decision
(** Process one arrival.  Jobs must arrive in non-decreasing release
    order with distinct ids; raises [Invalid_argument] otherwise.
    Raises [Failure] when a must-finish job has no free slot of usable
    length inside its window. *)

val schedule : t -> Schedule.t
(** One slice per booked slot (plus the flushed accumulator under gc).
    The order depends on [~gc], unlike PD's: without gc, every slot
    machine by machine, each machine's in time order; with gc, the live
    slots that way, then the flushed ones in the reverse of the order
    they were flushed.  Both list the same slices. *)

val stats : t -> Pd_core.stats
(** Cumulative counters: [probes] counts priced candidate slots,
    [intervals] counts scanned gaps, [breakpoints] and [bisections] stay
    [0].  As in PD, an arrival that raises [Failure] counts, with the
    gaps it scanned. *)

val mem : t -> Pd_core.mem_stats
(** Residency gauges; [live_intervals] counts live booked slots and
    [table_entries] the dup-id table, as in PD. *)

val certificate : power:Power.t -> machines:int -> decision list -> float
(** {!Pd_core.certificate}: the weak-duality bound [g(λ̃)] over the
    given decisions — fed a prefix's decisions, a lower bound on the
    preemptive (hence also the non-preemptive) optimal cost of that
    prefix instance, with or without gc. *)

type result = {
  schedule : Schedule.t;
  cost : Cost.t;
  lambda : float array;  (** indexed by job id *)
  accepted : int list;
  rejected : int list;
  dual_bound : float;  (** [g(λ̃)], lower bound on the preemptive OPT *)
  guarantee : float;
      (** [α^α] — PD's factor, reported for comparison only; NPD claims
          no worst-case guarantee *)
  decisions : decision list;  (** in arrival order *)
}

val run : ?delta:float -> Instance.t -> result
(** Feed all jobs of the instance in release order and assemble the
    result. *)
