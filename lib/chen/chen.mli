(** Chen et al.'s energy-optimal multiprocessor schedule for one atomic
    interval (ECRTS 2004), as used by the paper in Section 2.2.

    Input: an interval of length [l], [m] processors, and an absolute
    workload [W_j] for each job assigned to the interval.  The energy-
    minimal schedule splits jobs into {e dedicated} jobs — each larger than
    the average of what remains, run alone on its own processor at speed
    [W_j / l] — and {e pool} jobs, which timeshare the remaining processors
    at one common speed.  Formally (Equation (5) of the paper), after
    sorting [W_1 >= W_2 >= ...], job [j] is dedicated iff

    {v j <= m  /\  W_j > 0  /\  W_j >= (Σ_{j' > j} W_j') / (m - j) v}

    and the dedicated set is a prefix of the sorted order.

    The module works in absolute loads; the caller converts the paper's
    fractional variables via [W_j = x_jk * w_j].

    Besides the partition itself this module exposes the quantities PD's
    analysis needs: the interval energy [P_k] (Eq. 6), the marginal power
    [∂P_k/∂load_j = P'_α(s_j)] (Prop. 1(b)), and a closed-form inverse
    [probe_load_for_speed] that answers "how much load must a {e new} job
    place into this interval to be scheduled at speed [s]?" — the primitive
    from which PD's water-filling is built. *)

open Speedscale_model

type t
(** An interval problem: [m], [l], and the (id, load) pairs with load > 0,
    preprocessed (sorted, prefix sums) for O(log p) queries. *)

val build : machines:int -> length:float -> (int * float) list -> t
(** Loads with non-positive values are dropped.  Duplicated ids, a
    non-positive length or [machines < 1] raise [Invalid_argument]. *)

val add_load : t -> int * float -> t
(** [add_load t (id, z)] is [t] with one more job: value-identical to
    rebuilding from the extended pair list, but O(p) blits instead of a
    sort plus duplicate scan — the incremental commit update on PD's hot
    path.  The load must be positive ([Invalid_argument] otherwise) and
    the id must not already be present (unchecked: the caller owns the id
    discipline). *)

val rescale : t -> length:float -> factor:float -> t
(** [rescale t ~length ~factor] scales every load by [factor > 0] and sets
    the interval length — the split update when a new boundary divides an
    interval and its committed loads proportionally.  Value-identical to
    rebuilding from the scaled pairs (sorted order is preserved; prefix
    sums and the dedicated prefix are recomputed on the scaled values). *)

val machines : t -> int
val interval_length : t -> float

val total_load : t -> float
(** Sum of all job loads in the interval. *)

type partition = {
  dedicated : (int * float) list;
      (** (id, load), in decreasing load order; job [i] in this list runs
          alone on processor [i] at speed [load / l]. *)
  pool : (int * float) list;  (** remaining jobs, any order *)
  pool_speed : float;  (** common speed of pool processors (0 if none) *)
  pool_procs : int;  (** [m - |dedicated|] *)
}

val partition : t -> partition

val energy : Power.t -> t -> float
(** [P_k] of Equation (6): dedicated jobs at their own speed plus pool
    processors at the pool speed, over the interval length. *)

val speed_of_job : t -> int -> float
(** Speed at which the given job runs ([load/l] if dedicated, pool speed
    otherwise).  Raises [Not_found] for ids without load. *)

val job_speeds : t -> (int * float) list
(** All (id, speed) pairs in one O(p) pass — the full gradient direction
    of [P_k] via Prop. 1(b). *)

val processor_loads : t -> float array
(** Work processed by each processor, sorted in decreasing order — the
    [L_i] of Proposition 2. *)

val probe_speed : t -> float -> float
(** [probe_speed t z] is the speed a {e new} job with load [z >= 0] would
    receive if added to the interval.  At [z = 0] this is the right limit —
    the marginal speed: the pool speed if a pool processor exists, else the
    smallest dedicated speed. *)

val probe_load_for_speed : t -> float -> float
(** [probe_load_for_speed t s] is the unique load [z > 0] such that
    [probe_speed t z = s], or [0] when [probe_speed t 0 >= s] (the interval
    is already running at least that fast).  Closed form, O(log p).
    Satisfies [probe_speed t (probe_load_for_speed t s) = s] whenever the
    result is positive. *)

val probe_breakpoints : t -> cap:float -> float array
(** Sorted, duplicate-free speeds [s_1 < s_2 < ... < s_B] such that the
    capped probe response [g s = min (probe_load_for_speed t s) cap] is
    affine on every segment [[s_i, s_{i+1}]], identically [0] at and below
    [s_1 = probe_speed t 0], and equal to [cap] at [s_B] (and beyond).  A
    superset of the true kinks of [g] — spurious interior entries are
    allowed — with at most {!breakpoint_capacity} entries.  [cap] must be
    positive.  This is {!write_breakpoints} into a fresh array, sorted and
    deduplicated.  PD's water-filling writes every window interval's
    candidates into one scratch buffer instead and finds its crossing
    segment there with {!bracket_crossing}: between two adjacent merged
    breakpoints the total work a new job would commit is a sum of affine
    functions, so the finishing price falls out of one linear
    interpolation instead of a blind bisection. *)

val breakpoint_capacity : t -> int
(** Upper bound on the entries one {!write_breakpoints} call writes:
    [2 + min p m + 3 (min p (m - 1) + 1)] for [p] stored loads. *)

val write_breakpoints :
  t -> cap:float -> below:float -> float array -> int -> int
(** [write_breakpoints t ~cap ~below buf pos] writes the raw candidate
    speeds behind {!probe_breakpoints} — unsorted, possibly repeated —
    into [buf] from index [pos] on, and returns the next free index.
    Candidates that are not finite, lie below [probe_speed t 0], or are
    at or above [below] are dropped as they are generated ([below =
    infinity] keeps them all).  [buf] needs room for
    {!breakpoint_capacity} entries past [pos]; nothing is allocated.
    [cap] must be positive. *)

val bracket_crossing :
  float array ->
  int ->
  f:(float -> float) ->
  target:float ->
  top:float ->
  f_top:float ->
  float * float * float * float
(** [bracket_crossing buf n ~f ~target ~top ~f_top] finds where a
    nondecreasing [f] crosses [target] among the candidates [buf.(0) ..
    buf.(n-1)] — unsorted, possibly repeated, finite and below [top] —
    and [top] itself, where [f_top = f top >= target].  It returns
    [(sa, fa, sb, fb)]: [sb] is the smallest of them with [f sb >=
    target], [sa] the largest candidate below [sb] (so [f sa < target]),
    and [fa], [fb] their [f] values.  When no candidate lies below [sb],
    [sa] is [neg_infinity] and [fa] is [0].  The result is the adjacent
    pair a binary search over the sorted, deduplicated candidates would
    bracket, found by selection: each step calls [f] once at a pivot and
    drops every candidate outside the new bracket.  [f] is called at most
    [2 ceil(log2 (n + 1))] times, never at [top] and never twice at one
    value, and every returned [f] value comes from one of those calls.
    [buf]'s first [n] entries are overwritten. *)

val marginal_power : Power.t -> t -> float
(** [P'_α(probe_speed t 0)] — the marginal energy cost per unit of load a
    new job pays in this interval; [λ_jk / (δ w_j)] at [x_jk = 0]. *)

val slices : t -> t0:float -> t1:float -> Schedule.slice list
(** Realize the partition on the concrete time window [[t0, t1)] (whose
    width must equal the interval length): dedicated job [i] on processor
    [i]; pool jobs wrapped across processors [d..m-1] by McNaughton's rule,
    which is valid because every pool load is at most [pool_speed * l].
    The list holds the pool slices, last emitted first, then the
    dedicated ones in processor order: the reverse of {!write_slices}. *)

val slice_capacity : t -> int
(** Upper bound on the slices one {!write_slices} call writes: [d + 2 (p -
    d)] for [p] stored loads, [d] of them dedicated. *)

val write_slices : t -> t0:float -> t1:float -> float array -> int -> int
(** [write_slices t ~t0 ~t1 buf pos] writes {!slices}' slices into [buf]
    as {!Speedscale_model.Schedule} slice records, from slot [pos] on, and
    returns the next free slot.  The order is the dedicated slices from
    processor [d - 1] down to [0], then the pool slices as McNaughton's
    rule emits them.  [buf] needs room for {!slice_capacity} slots past
    [pos]; nothing is allocated. *)
