(** Concrete schedules: who runs where, when, and how fast.

    A schedule is a set of {e slices} — maximal stretches during which one
    processor runs one job at one constant speed — plus the set of jobs the
    algorithm rejected.  All algorithms in this repository produce
    piecewise-constant speed profiles (optimal schedules always can, because
    availability only changes at interval boundaries and [P_α] is convex),
    so slices represent them exactly and energy integrals are closed-form.

    The module also implements the model's feasibility rules from Section 2:
    one job per processor at a time, no job on two processors at once,
    work only inside the job's [[r_j, d_j)] window, and finished jobs must
    receive their full workload. *)

type slice = {
  proc : int;  (** processor index, [0 .. m-1] *)
  t0 : float;
  t1 : float;  (** [t0 < t1] *)
  job : int;  (** job id *)
  speed : float;  (** constant speed [> 0] on the slice *)
}

type records
(** The slices as flat float records (see {!slice_words}); read them with
    {!slices}, {!iter}, {!fold} or {!length}.  The store may hold spare
    slots past the last slice, so polymorphic equality on [t] is not
    slice equality: compare {!slices}. *)

type t = private {
  machines : int;
  rejected : int list;  (** job ids the algorithm chose not to finish *)
  records : records;
}

val make : machines:int -> rejected:int list -> slice list -> t
(** Basic shape validation only (processor range, positive duration and
    speed, and processor and job ids below [2^53] in magnitude, the range a
    float holds exactly); semantic validation against an instance is
    {!validate}.  Slices of zero speed or zero duration are dropped; the
    rest keep their list order.  Raises [Invalid_argument] at the first
    slice that fails a check, in list order.  It is {!of_records} on a
    fresh buffer holding the list. *)

(** {2 Slice records}

    This module owns the flat layout that PD's accumulators, Chen's
    realization and the schedule itself share: one record of
    {!slice_words} floats per slice, so slot [i] of a buffer is
    [buf.(5 i) .. buf.(5 i + 4)] holding processor, start, end, job id and
    speed.  Processor and job ids round-trip exactly while
    [|id| < 2^53]; {!make} and {!of_records} reject any other. *)

val slice_words : int

val write_slice : float array -> int -> slice -> unit
(** [write_slice buf i s] stores [s] in slot [i]. *)

val read_slice : float array -> int -> slice
(** [read_slice buf i] is the slice stored in slot [i]. *)

val rev_records : float array -> int -> unit
(** [rev_records buf n] reverses the order of slots [0 .. n-1] in place. *)

val of_records :
  machines:int -> rejected:int list -> float array -> int -> t
(** [of_records ~machines ~rejected buf n] is the schedule of the [n]
    slices in slots [0 .. n-1] of [buf], in slot order, and takes
    ownership of [buf]: the caller must not use it afterwards.  It runs
    {!make}'s checks, in slot order and with {!make}'s messages, and drops
    zero-speed or zero-length slices by compacting [buf] in place, so
    [of_records ~machines ~rejected buf n] and [make ~machines ~rejected
    l] agree whenever [buf] holds [l]'s slices. *)

(** {2 Reading a schedule} *)

val length : t -> int
(** Number of slices. *)

val slices : t -> slice list
(** The slices in order, as a freshly built list. *)

val iter : (slice -> unit) -> t -> unit
val fold : ('a -> slice -> 'a) -> 'a -> t -> 'a

val jobs : t -> int array
(** The job id of every slice, in order. *)

val energy : Power.t -> t -> float
(** Total energy [Σ_slices (t1 - t0) · speed^α]. *)

val work_of_job : t -> int -> float
(** Work processed for a job across all its slices. *)

val finished : Instance.t -> t -> int list
(** Ids of jobs that received their full workload (up to tolerance) within
    their window. *)

val unfinished : Instance.t -> t -> int list
(** Complement of {!finished} — exactly the jobs whose value is lost. *)

val cost : Instance.t -> t -> Cost.t
(** Energy plus the value of unfinished jobs (Equation (1) of the paper). *)

val validate : Instance.t -> t -> (unit, string) result
(** Full feasibility check: slice shape, processor/job overlap freedom,
    window containment, and that every non-rejected job is finished.  The
    first violated rule is reported.  O(s log s + n) for [s] slices and
    [n] jobs: one stable sort per overlap key. *)

val speed_profile : t -> proc:int -> (float * float * float) list
(** [(t0, t1, speed)] runs of one processor, sorted by time. *)

val speed_at : t -> proc:int -> float -> float
(** Instantaneous speed of a processor ([0] when idle or out of range).
    Slice intervals are half-open, so the speed at a boundary is the
    incoming slice's. *)

val running_at : t -> proc:int -> float -> int option
(** The job running on the processor at that instant, if any. *)

val busy_intervals : t -> job:int -> (float * float) list
(** When (and only when) the given job is being processed, sorted. *)

val pp : Format.formatter -> t -> unit
(** Compact multi-line rendering for debugging and the figure benches. *)
