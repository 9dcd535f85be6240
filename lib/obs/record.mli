(** The structured benchmark-result model behind [bench/main.exe --json].

    One {!t} is one benchmark observation: an experiment verdict or one
    timed run inside an experiment.  The deterministic payload (id,
    params, metrics, counters, verdict) is kept strictly apart from the
    {!timing} slot so that two runs of the same experiment set can be
    compared for {e result} equality regardless of how fast the machine
    was — that is what the parallel-runner determinism property relies
    on, and the verdict is what [bench/main.exe] gates on. *)

type kind =
  | Experiment  (** a table/figure experiment with a CONFIRMED verdict *)
  | Timing  (** one timed run (a rung of a scaling ladder, ...) *)

type param =
  | P_int of int
  | P_float of float
  | P_str of string
  | P_bool of bool

type timing = { wall_s : float  (** wall-clock of the run, seconds *) }

type t = {
  id : string;  (** "E2", "E24/ladder-n1000", ... *)
  kind : kind;
  params : (string * param) list;  (** instance sizes, seeds, alpha, ... *)
  metrics : (string * float) list;  (** deterministic measured numbers *)
  counters : (string * int) list;  (** deterministic op/event counts *)
  verdict : bool option;  (** CONFIRMED / NOT CONFIRMED, when meaningful *)
  timing : timing option;  (** the only machine-dependent part *)
}

type env = {
  ocaml_version : string;
  word_size : int;
  os_type : string;
  jobs : int;  (** worker domains the producing run used *)
}

type file = { version : int; env : env; records : t list }

val schema_version : int
(** Current schema version, stored in [file.version]; [decode_file]
    rejects files from a different major schema. *)

val make :
  id:string ->
  ?params:(string * param) list ->
  ?metrics:(string * float) list ->
  ?counters:(string * int) list ->
  ?verdict:bool ->
  ?timing:timing ->
  kind ->
  t

val with_wall : wall_s:float -> t -> t
(** Attach a wall clock if the record does not already carry one. *)

val strip_timing : t -> t
(** Drop the machine-dependent part; what determinism tests compare. *)

val equal : t -> t -> bool
(** Full structural equality (floats via [Float.equal]). *)

val equal_modulo_timing : t -> t -> bool
(** Equality of the deterministic payloads only. *)

val equal_file : file -> file -> bool

val current_env : jobs:int -> env

val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val file_to_json : file -> Json.t
val file_of_json : Json.t -> (file, string) result

val encode_file : file -> string
(** Canonical JSON text, newline-terminated. *)

val decode_file : string -> (file, string) result

val write_file : path:string -> file -> unit
val read_file : path:string -> (file, string) result
(** [read_file] returns [Error] rather than raising on unreadable paths. *)
