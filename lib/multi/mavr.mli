(** Multiprocessor Average Rate.

    The natural migratory extension of Yao–Demers–Shenker's AVR: inside
    every atomic interval each available job contributes its density
    [w_j / (d_j − r_j)] worth of load, and the interval is realized with
    Chen et al.'s optimal per-interval schedule (dedicated/pool split +
    McNaughton).  On one processor this degenerates to classical AVR
    exactly (all jobs pooled at the summed density).

    Like AVR it is fully online and oblivious — a job's processing rate
    never reacts to other jobs — which makes it a useful "no coordination"
    baseline for the multiprocessor experiments (E18). *)

open Speedscale_model

val schedule : Instance.t -> Schedule.t
(** Values are ignored: every job is finished. *)

val slices : Instance.t -> Schedule.slice list
(** {!schedule}'s slices as a list, before {!Schedule.make}. *)

val energy : Instance.t -> float
