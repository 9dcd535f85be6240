(** Checkpoint manifests: the commit protocol for sharded snapshots.

    A service checkpoint is [k] per-shard `online-snapshot v1` files plus
    one {e manifest} naming them.  The write protocol makes the whole
    set crash-consistent without fsync ceremony:

    + every shard snapshot is written atomically ({!Atomic_io.write}) to
      a {e per-checkpoint} name, [ckpt-<seq>-shard-<i>.snap], so a new
      checkpoint never overwrites the files the current manifest points
      at;
    + the manifest — carrying each file's MD5 — is renamed into place
      {e last}, which makes it the single commit point;
    + files from superseded checkpoints are pruned only {e after} the
      manifest commit, so a crash anywhere leaves a manifest whose files
      all exist, intact, with matching digests.

    {!load} verifies the digests and fails loudly on any mismatch: a
    corrupted checkpoint must never restore silently. *)

type t = {
  engine : string;  (** registry name, e.g. ["pd"] *)
  shard_fn : string;  (** partitioning-function tag, e.g. ["id-mix-v1"] *)
  shards : int;
  seq : int;  (** arrivals ingested when the checkpoint was cut *)
  files : string list;  (** per-shard snapshot file names, shard order *)
}

val manifest_name : string
(** ["manifest"] — the file {!write} commits inside the directory. *)

val write :
  dir:string -> engine:string -> shard_fn:string -> seq:int ->
  string array ->
  unit
(** [write ~dir ~engine ~shard_fn ~seq snapshots] commits one checkpoint
    (creating [dir] if needed) and prunes files of older checkpoints.
    The commit point is the atomic rename of [dir/manifest]. *)

val load : manifest:string -> t * string array
(** Read a manifest (by path) and its shard snapshot texts, verifying
    every recorded MD5.  Raises [Failure] with a descriptive message on
    a missing file, a digest mismatch, or a malformed manifest
    (including [shards < 1], [seq < 0], a repeated header line, and a
    shard file that is not a plain name inside the manifest's
    directory). *)
