(** The incremental replan-execute core shared by every OA-family online
    algorithm: plain OA and Chan–Lam–Li on one processor, and their
    multiprocessor counterparts mOA and mCLL in [lib/multi].

    The OA pattern (Yao–Demers–Shenker) re-plans at every job arrival: it
    computes an energy-optimal schedule for the {e remaining} work of all
    known unfinished jobs and follows it until the next arrival.  Between
    arrivals the executed prefix of the plan is committed and the remaining
    workloads updated.  This module implements that pattern as a mutable
    incremental state driven one arrival at a time — the shape the
    [Speedscale_engine.Online] registry folds over — parameterized by

    + a {e plan function} (single-processor YDS, or the multiprocessor
      convex-program plan), and
    + an {e admission test} evaluated once per arrival: if the test
      rejects the job, it is discarded (its value will be lost) and never
      processed.  Plain OA/mOA admit everything; CLL/mCLL plug in their
      planned-speed threshold.

    Driving [step] over the release-ordered jobs of an instance and then
    reading {!current_plan} reproduces the historical batch simulation
    byte for byte: arrivals sharing a release time are admitted one by one
    (in id order) before any execution, and execution advances only when
    the clock does. *)

open Speedscale_model

type admission = now:float -> plan:Job.t list -> candidate:Job.t -> bool
(** [plan] is the adjusted remaining-work job list {e including} the
    candidate (windows shifted to start at [now]), as CLL's test needs the
    planned schedule with the new job in it. *)

type verdict = {
  admitted : bool;
  planned_speed : float option;
      (** the candidate's speed in the admission-time plan, when the
          admission test computed it (CLL/mCLL); [None] for tests that
          never plan the candidate *)
}

type admission_sp = now:float -> plan:Job.t list -> candidate:Job.t -> verdict
(** Admission test that also reports the planned speed it measured, so the
    online decision record carries it without planning twice. *)

type plan_fn = now:float -> Job.t list -> Schedule.slice list
(** [plan ~now jobs] schedules the remaining-work jobs (windows already
    shifted to start at [now], original ids preserved) from time [now]
    onward.  Must be deterministic in its arguments. *)

type t
(** Mutable incremental state. *)

val start :
  machines:int ->
  plan:plan_fn ->
  ?admit:admission_sp ->
  ?must_finish:bool ->
  unit ->
  t
(** Fresh state at the beginning of time.  [admit] defaults to
    admit-everything; [must_finish] (default [false]) stores arriving jobs
    with their value forced to [infinity] — the energy-only view OA, mOA
    and mAVR plan with.  Raises [Invalid_argument] if [machines < 1]. *)

val step : t -> Job.t -> verdict
(** Process one arrival: execute the standing plan up to the job's release
    time, then run the admission test.  Jobs must arrive in non-decreasing
    release order with distinct ids; raises [Invalid_argument]
    otherwise. *)

val current_plan : t -> Schedule.t
(** Executed slices so far plus the standing plan for all remaining work,
    as one schedule.  Pure: does not advance the state, so it can be read
    between arrivals (the "what would you do if no more jobs came"
    projection) and doubles as the final schedule after the last
    arrival. *)

val clip_slices : until:float -> Schedule.slice list -> Schedule.slice list
(** Keep only the part of each slice before [until], dropping sliver
    slices whose clipped width is below the [Feq] tolerance (a slice ending
    within tolerance of [until] would otherwise survive as a zero-width
    artifact and trip overlap validation downstream).  Exposed for the
    multiprocessor planners and their tests. *)

val run : ?admit:admission -> Instance.t -> Schedule.t
(** Batch wrapper kept for the offline entry points: folds {!step} over
    the instance's release-ordered jobs with the single-processor YDS plan
    and returns {!current_plan}.  Requires [machines = 1].  The returned
    schedule carries the rejected ids.  Jobs whose deadline passes before
    they finish can not occur (YDS plans are feasible); leftover float
    dust below 1e-9 of a workload is considered finished. *)
