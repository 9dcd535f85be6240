(** The convex-programming relaxation (CP) of the scheduling problem
    (Figure 1 of the paper) and an offline solver for it.

    Variables are the fractions [x_jk ∈ [0,1]] of job [j]'s workload placed
    into atomic interval [T_k] (only intervals inside the job's window are
    materialized).  The indicator [y_j] is eliminated: for fixed [x] the
    optimal choice is [y_j = min(1, Σ_k x_jk)], so over the per-job capped
    simplex [Σ_k x_jk <= 1] the objective

    {v Σ_k P_k(x·w) + Σ_j v_j (1 - Σ_k x_jk) v}

    is convex and C¹ (Prop. 1), and projected gradient descent reaches the
    global optimum.  In must-finish mode the per-job constraint is
    [Σ_k x_jk = 1] and the value terms disappear — the classical
    multiprocessor YDS relaxation (Bingham–Greenstreet), whose optimum is
    the true offline energy optimum because Chen's per-interval schedule
    realizes any interval work assignment optimally.

    The optimum of (CP) lower-bounds the optimum of the integral program
    (IMP) and hence of the real scheduling problem; {!to_schedule} converts
    any [x] into a concrete schedule whose energy equals the objective's
    energy term exactly. *)

open Speedscale_model

type t
(** A compiled problem: instance, timeline, and the flat variable layout. *)

type mode =
  | Profitable  (** jobs may be left unfinished at the price of their value *)
  | Must_finish  (** every job must be fully assigned ([Σ_k x_jk = 1]) *)

val make : Instance.t -> t
(** Timeline is the paper's partition over all release times/deadlines. *)

val instance : t -> Instance.t
val timeline : t -> Timeline.t
val n_vars : t -> int

val window : t -> int -> int array
(** Interval indices (into the timeline) of job [j]'s availability
    window. *)

val offset : t -> int -> int
(** Start of job [j]'s block in the flat variable vector; the variable for
    the [i]-th interval of [window t j] lives at [offset t j + i]. *)

val completion : t -> float array -> float array
(** Per-job [Σ_k x_jk] of a flat variable vector. *)

val energy : t -> float array -> float
(** [Σ_k P_k] — energy of the work assignment. *)

val objective : t -> mode -> float array -> float
val gradient : t -> mode -> float array -> float array
val project : t -> mode -> float array -> float array

type solution = {
  x : float array;
  objective : float;
  energy : float;
  lost_value : float;
  completion : float array;
  iterations : int;
  converged : bool;
}

val solve :
  ?max_iters:int -> ?tol:float -> ?x0:float array -> t -> mode -> solution
(** Projected gradient from a uniform starting point (or [x0]).  In
    [Profitable] mode jobs with infinite value are constrained to the full
    simplex, so the objective stays finite. *)

val to_schedule : ?finish_tol:float -> t -> float array -> Schedule.t
(** Realize a work assignment: Chen's algorithm in every interval.  Jobs
    whose completion is below [1 - finish_tol] (default 1e-6) are marked
    rejected.  In must-finish solutions every job completes.  Fractions
    of nearly-complete jobs are rescaled so that finished jobs receive
    exactly their workload. *)

val to_slices :
  ?finish_tol:float -> t -> float array -> int list * Schedule.slice list
(** {!to_schedule}'s rejected ids and slices, before {!Schedule.make}. *)
