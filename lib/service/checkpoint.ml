type t = {
  engine : string;
  shard_fn : string;
  shards : int;
  seq : int;
  files : string list;
}

let manifest_name = "manifest"
let ckpt_prefix = "ckpt-"

let shard_file ~seq i = Fmt.str "%s%d-shard-%d.snap" ckpt_prefix seq i

let render ~engine ~shard_fn ~seq entries =
  let b = Buffer.create 256 in
  let pf fmt = Fmt.kstr (Buffer.add_string b) fmt in
  pf "service-manifest v1\n";
  pf "engine %s\n" engine;
  pf "shard-fn %s\n" shard_fn;
  pf "shards %d\n" (List.length entries);
  pf "seq %d\n" seq;
  List.iteri (fun i (file, digest) -> pf "shard %d %s %s\n" i file digest)
    entries;
  Buffer.contents b

let ensure_dir dir =
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755
  else if not (Sys.is_directory dir) then
    failwith (Fmt.str "Checkpoint.write: %s exists and is not a directory" dir)

let write ~dir ~engine ~shard_fn ~seq snapshots =
  ensure_dir dir;
  let entries =
    Array.to_list
      (Array.mapi
         (fun i snap ->
           let file = shard_file ~seq i in
           Atomic_io.write ~path:(Filename.concat dir file) snap;
           (file, Digest.to_hex (Digest.string snap)))
         snapshots)
  in
  Atomic_io.write
    ~path:(Filename.concat dir manifest_name)
    (render ~engine ~shard_fn ~seq entries);
  (* Prune superseded checkpoint files only after the manifest commit:
     a crash before this point leaves extra files, never missing ones. *)
  let keep = List.map fst entries in
  Array.iter
    (fun name ->
      if
        String.length name >= String.length ckpt_prefix
        && String.sub name 0 (String.length ckpt_prefix) = ckpt_prefix
        && (not (List.mem name keep))
        && Filename.check_suffix name ".snap"
      then Sys.remove (Filename.concat dir name))
    (Sys.readdir dir)

let load ~manifest =
  let fail fmt = Fmt.kstr (fun m -> failwith ("Checkpoint.load: " ^ m)) fmt in
  let text =
    match Atomic_io.read ~path:manifest with
    | s -> s
    | exception Sys_error e -> fail "%s" e
  in
  let dir = Filename.dirname manifest in
  let engine = ref None
  and shard_fn = ref None
  and shards = ref None
  and seq = ref None
  and entries_rev = ref [] in
  let lines = String.split_on_char '\n' text in
  (match lines with
  | first :: _ when String.trim first = "service-manifest v1" -> ()
  | _ -> fail "%s is not a service-manifest v1" manifest);
  List.iteri
    (fun i line ->
      let lineno = i + 1 in
      let line = String.trim line in
      if lineno = 1 || line = "" || line.[0] = '#' then ()
      else
        let int_field what v =
          match int_of_string_opt v with
          | Some n -> n
          | None -> fail "line %d: bad %s %S" lineno what v
        in
        match String.split_on_char ' ' line |> List.filter (( <> ) "") with
        | [ "engine"; v ] -> engine := Some v
        | [ "shard-fn"; v ] -> shard_fn := Some v
        | [ "shards"; v ] -> shards := Some (int_field "shards" v)
        | [ "seq"; v ] -> seq := Some (int_field "seq" v)
        | [ "shard"; i; file; digest ] ->
          entries_rev := (int_field "shard index" i, file, digest)
            :: !entries_rev
        | _ -> fail "line %d: unrecognized %S" lineno line)
    lines;
  let need what = function
    | Some v -> v
    | None -> fail "missing '%s' line" what
  in
  let k = need "shards" !shards in
  if k < 1 then fail "shards must be >= 1, got %d" k;
  let entries =
    List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b) (List.rev !entries_rev)
  in
  if List.length entries <> k then
    fail "expected %d shard lines, found %d" k (List.length entries);
  List.iteri
    (fun i (idx, _, _) -> if idx <> i then fail "missing shard %d entry" i)
    entries;
  let snaps =
    List.map
      (fun (i, file, digest) ->
        let path = Filename.concat dir file in
        let snap =
          match Atomic_io.read ~path with
          | s -> s
          | exception Sys_error e -> fail "shard %d: %s" i e
        in
        let actual = Digest.to_hex (Digest.string snap) in
        if not (String.equal actual digest) then
          fail
            "shard %d: digest mismatch for %s (manifest %s, file %s) — \
             checkpoint is corrupt"
            i file digest actual;
        snap)
      entries
  in
  ( {
      engine = need "engine" !engine;
      shard_fn = need "shard-fn" !shard_fn;
      shards = k;
      seq = need "seq" !seq;
      files = List.map (fun (_, f, _) -> f) entries;
    },
    Array.of_list snaps )
