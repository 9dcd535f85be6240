(** Average Rate (AVR), Yao–Demers–Shenker's second online heuristic.

    Every job is processed at its own constant {e density} [w_j / (d_j -
    r_j)] throughout its window; the processor speed at any time is the sum
    of the densities of the available jobs.  AVR is
    [2^(α-1) α^α]-competitive — simple, online, but strictly worse than OA.
    We realize the processor-sharing schedule by slicing each atomic
    interval sequentially at the summed speed, which preserves both
    feasibility and the energy integral exactly. *)

open Speedscale_model

val schedule : Instance.t -> Schedule.t
(** Requires [machines = 1]. *)

val slices : Instance.t -> Schedule.slice list
(** {!schedule}'s slices as a list, before {!Schedule.make}: what a caller
    that renumbers jobs and builds its own schedule reads. *)

val energy : Instance.t -> float
(** [∫ (Σ_available density_j)^α dt], computed in closed form over atomic
    intervals. *)
