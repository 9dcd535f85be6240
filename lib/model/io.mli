(** The arrival text format: instance files, arrival streams and the job
    lines of engine snapshots all share one line grammar, one number
    parser and one field validator, and they live here.

    Format (header lines, then one line per job):

    {v
    alpha 3.0
    machines 2
    # release deadline workload value   ("inf" for must-finish)
    job 0.0 2.0 1.5 10.0
    job 0.5 3.0 2.0 inf
    v}

    Lines starting with [#] and blank lines are ignored.  Numbers are
    OCaml float literals; an infinite value prints and parses as [inf].
    Fields are validated by [Power.make], [Job.make] and [machines >= 1]
    and nothing else.  Every complaint is a [Failure], whose message
    starts with ["line N: "] when a line is at fault. *)

val to_string : Instance.t -> string

val of_string : string -> Instance.t
(** Order-insensitive: headers may follow jobs, and job ids are assigned
    by [Instance.make] (release order).  Raises [Failure] on malformed
    input. *)

val save : string -> Instance.t -> unit
val load : string -> Instance.t

val read_stream :
  in_channel ->
  start:(line:int -> power:Power.t -> machines:int -> 'a) ->
  arrive:('a -> line:int -> Job.t -> unit) ->
  'a
(** The same format read as an arrival stream, one line at a time, so a
    job reaches [arrive] before the next line is read.  [start] runs once,
    at the first job line, with the headers read so far; [arrive] gets
    every job in file order with id = its arrival index; the result is
    [start]'s.  Headers must precede the first job, releases must be
    nondecreasing, and the stream must hold a job.  Raises [Failure] on
    any violation. *)

(** {2 The grammar, for other readers of job lines} *)

val tokens : string -> string list
(** The words of a line; [[]] for a blank or [#] comment line. *)

val fail : line:int -> ('a, Format.formatter, unit, 'b) format4 -> 'a
(** [fail ~line fmt] raises [Failure "line <line>: ..."]. *)

val number : line:int -> string -> string -> float
(** [number ~line what token] parses a number field named [what]. *)

val power : line:int -> string -> Power.t
(** An [alpha] header's value. *)

val machines : line:int -> string -> int
(** A [machines] header's value, [>= 1]. *)

val job : line:int -> id:int -> string -> string -> string -> string -> Job.t
(** [job ~line ~id r d w v] builds a job from its four fields through
    [Job.make]. *)

val job_line : ?id:int -> Job.t -> string
(** A [job] line, newline included, at the precision [job] reads back
    exactly; with [id], the id comes first (the snapshot form). *)
