(** PD — the paper's online greedy primal-dual algorithm for profitable
    scheduling on [m] speed-scalable processors (Listing 1).

    PD maintains, for every atomic interval [T_k], the workload each
    previously accepted job has committed to [T_k].  When job [j] arrives:

    + the interval partition is refined with [r_j] and [d_j], splitting
      committed loads proportionally (Section 3, "Concerning the Time
      Partitioning");
    + the {e price} of placing work into interval [T_k] is the marginal
      energy cost [λ_jk = δ · ∂P_k/∂x_jk], evaluated with Chen et al.'s
      schedule of the already-committed loads plus [j]'s tentative load;
    + [j]'s load is poured into the cheapest intervals, keeping their
      prices equal (water-filling), until either the whole job is placed —
      job accepted with multiplier [λ_j] = the final common price — or the
      price reaches [v_j] first — job rejected, its tentative load reset,
      and [λ_j = v_j].

    Implementation note: instead of simulating the continuous increase we
    invert it.  A price level [μ] corresponds to the speed
    [s(μ) = P'^{-1}(μ / (δ w_j))]; the load interval [T_k] absorbs at that
    price is [Chen.probe_load_for_speed] — a closed form — so the final
    common price is the water-filling fixed point of a monotone assignment
    function.  {!arrive} writes every window interval's
    {!Chen.write_breakpoints} candidates into one unsorted buffer (the
    assignment is affine between adjacent distinct candidates), selects
    the segment holding the crossing with {!Chen.bracket_crossing} — no
    sort; each step sweeps the window at one candidate and drops those
    outside the new bracket — and interpolates inside it: O(log
    breakpoints) window sweeps instead of the ~200 a blind bisection
    needs.  {!arrive_reference} keeps the pre-optimization outer bisection
    as a test oracle; both paths share the timeline, probe and bookkeeping
    code, so any divergence isolates the breakpoint walk.  See
    doc/PERF.md.

    With [δ = α^(1-α)] (the default), PD is [α^α]-competitive (Theorem 3),
    and the certificate [g(λ̃)] returned in {!result} proves the bound {e
    per instance}: [cost <= α^α · g(λ̃) <= α^α · OPT].  {!certificate}
    computes it from any list of decisions, so a caller streaming
    arrivals keeps the decisions it wants certified, with or without gc.

    Since the framework refactor, PD is the reference instantiation of
    {!Pd_core}: [Pd_core.Make (Pd_core.Interval)],
    decision-bit-identical to the pre-framework code (qcheck-pinned in
    [test_core.ml]).  The non-preemptive engine [Npd] swaps only the
    relaxation module. *)

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
(** [delta] defaults to [Power.delta_star], the optimal [α^(1-α)].
    Raises [Invalid_argument] for [delta <= 0] or [machines < 1].

    [gc] (default [false]) bounds resident memory to the live window:
    before each arrival, every atomic interval lying wholly in the past
    of the current release (by a safety margin of several boundary
    tolerances, DESIGN.md section 5) has its realized slices flushed
    into a finished-schedule accumulator and its committed-load state
    dropped, and the dup-id table entries of jobs whose deadlines are
    equally past are evicted.  Decisions, multipliers and the final
    {!schedule} are identical to a [~gc:false] state fed the same stream,
    and so is the {!certificate} of those decisions; what changes is
    visibility: {!boundaries}, {!interval_loads} and
    {!decision.assignment} indices cover only the {e live} intervals, and
    duplicate-id detection only covers jobs whose windows are still live.
    Use {!mem} to observe residency.  To persist or move a state, use the
    engine layer's [online-snapshot v1] (doc/ENGINE.md): PD's state is a
    deterministic function of its arrival prefix, so replaying the
    arrivals restores it exactly, with or without gc. *)

type stats = Pd_core.stats = {
  arrivals : int;
      (** arrivals admitted past the duplicate-id and release-order
          checks *)
  probes : int;  (** [Chen.probe_load_for_speed] evaluations *)
  intervals : int;  (** atomic intervals in the arrivals' windows *)
  breakpoints : int;
      (** raw breakpoint candidates written for the crossing searches,
          plus one per search for its top (the value speed or a
          sentinel); repeats are counted, since nothing is deduplicated.
          The reference path adds none. *)
  bisections : int;
      (** fallback bisections: one each time the interpolated speed
          missed the target and [Bisect.monotone_inverse] ran inside the
          bracketing segment, whose probes are part of [probes].  The
          reference path adds none. *)
}
(** Cumulative work counters.  Every field is a deterministic function of
    the arrivals, so all are safe in observability record payloads, and
    none depends on [~gc].  An arrival's own work is the difference of
    two {!stats} reads around its {!arrive}; time it around the call. *)

val stats : t -> stats
(** Cumulative counters since {!create}; both arrival paths count.  An
    arrival whose {!arrive} raises [Failure] (a must-finish job PD cannot
    place) still counts: [arrivals] includes it and the other counters
    keep the work its pricing did before the raise. *)

type mem_stats = Pd_core.mem_stats = {
  live_intervals : int;  (** atomic intervals currently resident *)
  max_live_intervals : int;  (** high-water mark of [live_intervals] *)
  table_entries : int;  (** dup-id hash-table entries resident *)
  max_table_entries : int;  (** high-water mark of [table_entries] *)
  flushed_intervals : int;  (** intervals GC has flushed, cumulative *)
  evicted_jobs : int;  (** table entries GC has evicted, cumulative *)
  finished_slices : int;
      (** schedule slices parked in the finished accumulator *)
}

val mem : t -> mem_stats
(** Residency gauges.  With [~gc:false] the flushed/evicted counters stay
    [0] and the live counts grow with the instance; with [~gc:true] the
    live counts are proportional to the live window — the property E24's
    verdict checks in @bench-quick (doc/BENCHMARKING.md). *)

type decision = Pd_core.decision = {
  job : Job.t;
  accepted : bool;
  lambda : float;  (** the multiplier [λ̃_j] fixed at arrival *)
  planned_speed : float;
      (** [s̃_j]: the common speed of [j]'s assignment just before [λ̃_j]
          was fixed (for rejected jobs, the speed at which the job {e
          would} have run at price [v_j]) *)
  assignment : (int * float) list;
      (** committed loads per interval index of the timeline {e at arrival
          time} (empty for rejected jobs) *)
}

val arrive : t -> Job.t -> decision
(** Process one arrival.  Jobs must arrive in non-decreasing release order
    with distinct ids; raises [Invalid_argument] otherwise.

    Numerical edges (DESIGN.md section 5): a release or deadline within
    the boundary tolerance of an existing boundary snaps to it instead of
    splitting off a near-zero interval.  A job whose whole window
    collapses this way is rejected when its value is finite and raises
    [Failure] when it must finish; an accepted job whose assignment total
    is degenerate (≈ 0) also raises [Failure] rather than recording an
    acceptance backed by a garbage schedule. *)

val arrive_reference : t -> Job.t -> decision
(** The pre-optimization solver (outer bisection on the price with a full
    window sweep per probe), kept as a test oracle.  Interchangeable with
    {!arrive} call-for-call: identical admission checks, timeline updates
    and bookkeeping; accept/reject decisions are identical and multipliers
    agree to solver tolerance.  Quadratic-and-worse in the number of
    intervals — do not use outside tests. *)

val boundaries : t -> float array
(** Current {e live} atomic-interval boundaries (for inspection/tests).
    With [~gc:true], flushed intervals no longer appear. *)

val interval_loads : t -> (int * float) list array
(** Current committed loads per live atomic interval. *)

val schedule : t -> Schedule.t
(** The concrete schedule realized by Chen et al.'s algorithm in every
    atomic interval of the {e final} partition.  With [~gc:true] this is
    the finished accumulator (flushed intervals' slices) followed by the
    live intervals' slices — the same slices, interval for interval, as a
    [~gc:false] state would realize. *)

val certificate : power:Power.t -> machines:int -> decision list -> float
(** {!Pd_core.certificate}: the dual lower bound [g(λ̃)] over the jobs and
    multipliers of the given decisions.  Fed the decisions of a prefix of
    the arrivals, it lower-bounds the optimal cost of that prefix instance
    at any moment of the online execution (weak duality needs no future
    knowledge); together with the running cost this gives a live,
    certified bound on PD's regret.  [0] for no decisions. *)

type result = {
  schedule : Schedule.t;
  cost : Cost.t;
  lambda : float array;  (** indexed by job id *)
  accepted : int list;
  rejected : int list;
  dual_bound : float;  (** [g(λ̃)], a certified lower bound on OPT *)
  guarantee : float;  (** [α^α] *)
  decisions : decision list;  (** in arrival order *)
  delta : float;  (** the δ the run used *)
  final_boundaries : float array;
      (** atomic-interval boundaries after all refinements *)
  final_loads : (int * float) list array;
      (** committed loads per final interval — the [x̃] of the analysis *)
}

val run : ?delta:float -> Instance.t -> result
(** Feed all jobs of the instance in release order and assemble the
    result.  [cost <= guarantee * dual_bound] holds up to numerical
    tolerance whenever [delta <= delta_star] (Theorem 3). *)
