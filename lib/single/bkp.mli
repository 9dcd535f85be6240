(** The BKP online algorithm (Bansal–Kimbrel–Pruhs, FOCS 2004 / JACM 2007)
    for the classical single-processor problem.

    BKP approximates YDS's critical density in an online way: at time [t]
    it considers, for every future boundary [t2 > t], the backward-scaled
    interval [[e·t − (e−1)·t2, t2]] and the work [w(t, t1, t2)] of jobs
    {e known at t} whose windows fit inside it, and runs at speed

    {v  s(t) = e · max_{t2 > t} w(t, e·t−(e−1)·t2, t2) / (e · (t2 − t))  v}

    processing available jobs in EDF order.  BKP is essentially
    [2(α/(α−1))^α e^α]-competitive — better than OA for large [α].

    The BKP speed varies continuously inside atomic intervals (the [t] in
    the formula), which a piecewise-constant slice schedule cannot encode
    exactly.  {b Substitution note (cf. DESIGN.md):} we realize BKP on a
    fine per-interval grid, using the maximum of several speed samples per
    step times a 1e-6 safety margin, and retry with a doubled resolution if
    any job misses its deadline; the reported energy is therefore an upper
    estimate converging to BKP's from above. *)

open Speedscale_model

val speed_at : Instance.t -> float -> float
(** The instantaneous BKP speed (exact formula, maximizing over known
    deadlines). *)

val schedule : ?steps_per_interval:int -> Instance.t -> Schedule.t
(** Discretized realization (default 64 steps per atomic interval).
    Requires [machines = 1]. *)

val slices : ?steps_per_interval:int -> Instance.t -> Schedule.slice list
(** {!schedule}'s slices as a list, before {!Schedule.make}. *)

val energy : ?steps_per_interval:int -> Instance.t -> float
