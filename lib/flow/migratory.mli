(** Exact energy-optimal migratory scheduling via flow peeling
    (Angel, Bampis, Kacem and Letsios, "Speed scaling on parallel
    processors with migration").

    Every job must finish (values are ignored); preemption and migration
    are free.  The optimum has a level structure: each job runs at one
    constant speed, and the distinct speeds can be peeled off greedily.
    Each round binary-searches the minimal level [s] at which the
    still-free jobs fit alongside the already-frozen ones — feasibility
    is one max-flow on a {e time-unit} network

    {v source --w_j/s_j--> job_j --l_k--> interval_k --m·l_k--> sink v}

    — then freezes exactly the jobs whose flow is pinched at [s]: the
    free jobs on the source side of a minimum cut just below [s], where
    the pinched set falls short.  Termination: every round freezes at
    least one job.

    This is the combinatorial, certificate-carrying counterpart of
    {!Speedscale_multi.Mopt} (the projected-gradient solver): [Mopt]
    converges to tolerance, [Migratory] bisects a monotone predicate
    whose answer a max-flow certifies, and {!certify} re-checks the
    claimed optimum after the fact.  E28 uses it as the exact
    denominator for PD's empirical competitive ratio. *)

open Speedscale_model

type result = {
  energy : float;  (** optimal total energy *)
  speeds : float array;  (** per-job constant speed, indexed by job id *)
  levels : float list;  (** distinct peeled levels, outermost first *)
  schedule : Schedule.t;  (** a schedule realizing [energy] *)
}

val solve : Instance.t -> result
(** Raises [Failure] via the bisection helpers only on malformed
    instances (empty windows are already rejected by [Job.make]). *)

val energy : Instance.t -> float
(** [(solve inst).energy]. *)

val schedule : Instance.t -> Schedule.t
(** [(solve inst).schedule].  Validates against the instance with every
    job finished. *)

type certificate = {
  feasible : bool;
      (** the claimed speeds admit a feasible assignment (max-flow
          saturates the total processing time) *)
  pinched : bool;
      (** uniformly slowing all jobs of any one level by the probe
          factor breaks feasibility — no level can be lowered *)
  n_levels : int;  (** number of peeled levels *)
}

val certify : Instance.t -> result -> certificate
(** Post-hoc optimality witness for a {!solve} result; E28 reports it
    alongside the ratio table.  [feasible && pinched] is the CONFIRMED
    condition. *)
