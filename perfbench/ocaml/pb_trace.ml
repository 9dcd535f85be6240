(* In-memory span recorder for the traced run.

   A span is a name, a start and an end (monotonic seconds), the index of
   the span that caused it in the same buffer (-1 for a root) and the
   arrival [seq] it belongs to (-1 when it covers no single arrival).
   Spans of one arrival share that [seq] across layers and threads.
   Each thread writes only its own buffer; the worker domain's buffer is
   read after the service has drained, which orders the accesses.  The
   buffers are written out once, when the run ends. *)

type name =
  | Layer_pass
  | Core_arrive
  | Engine_arrive
  | Engine_finalize
  | Engine_snapshot
  | Engine_restore
  | Service_flood
  | Service_submit
  | Service_drain
  | Service_finalize
  | Service_roundtrip
  | Pool_roundtrip
  | Checkpoint_write
  | Checkpoint_load
  | Cli_serve
  | Cli_serve_summary

let all_names =
  [
    Layer_pass; Core_arrive; Engine_arrive; Engine_finalize;
    Engine_snapshot; Engine_restore; Service_flood; Service_submit;
    Service_drain; Service_finalize; Service_roundtrip; Pool_roundtrip;
    Checkpoint_write; Checkpoint_load; Cli_serve; Cli_serve_summary;
  ]

let string_of_name = function
  | Layer_pass -> "layer.pass"
  | Core_arrive -> "core.arrive"
  | Engine_arrive -> "engine.arrive"
  | Engine_finalize -> "engine.finalize"
  | Engine_snapshot -> "engine.snapshot"
  | Engine_restore -> "engine.restore"
  | Service_flood -> "service.flood"
  | Service_submit -> "service.submit"
  | Service_drain -> "service.drain"
  | Service_finalize -> "service.finalize"
  | Service_roundtrip -> "service.roundtrip"
  | Pool_roundtrip -> "pool.roundtrip"
  | Checkpoint_write -> "checkpoint.write"
  | Checkpoint_load -> "checkpoint.load"
  | Cli_serve -> "cli.serve"
  | Cli_serve_summary -> "cli.serve_summary"

type buf = {
  thread : string;
  mutable len : int;
  mutable names : name array;
  mutable starts : float array;
  mutable stops : float array;
  mutable parents : int array;
  mutable seqs : int array;
}

let create thread =
  let cap = 1024 in
  {
    thread;
    len = 0;
    names = Array.make cap Layer_pass;
    starts = Array.make cap 0.;
    stops = Array.make cap 0.;
    parents = Array.make cap (-1);
    seqs = Array.make cap (-1);
  }

let clear b = b.len <- 0

let grow b =
  let cap = 2 * Array.length b.starts in
  let extend a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 b.len;
    a'
  in
  b.names <- extend b.names Layer_pass;
  b.starts <- extend b.starts 0.;
  b.stops <- extend b.stops 0.;
  b.parents <- extend b.parents (-1);
  b.seqs <- extend b.seqs (-1)

(* Record a finished span; returns its index. *)
let add b name ~start ~stop ~parent ~seq =
  if b.len = Array.length b.starts then grow b;
  let i = b.len in
  b.names.(i) <- name;
  b.starts.(i) <- start;
  b.stops.(i) <- stop;
  b.parents.(i) <- parent;
  b.seqs.(i) <- seq;
  b.len <- i + 1;
  i

(* Open a span whose end is not known yet; [close] sets it. *)
let open_ b name ~parent =
  add b name ~start:(Pb_util.now ()) ~stop:Float.nan ~parent ~seq:(-1)

let close b i = b.stops.(i) <- Pb_util.now ()

(* Time [f ()] as one span. *)
let span b name ~parent ?(seq = -1) f =
  let t0 = Pb_util.now () in
  let r = f () in
  ignore (add b name ~start:t0 ~stop:(Pb_util.now ()) ~parent ~seq);
  r

let duration b i = b.stops.(i) -. b.starts.(i)

(* Total and self time per span name.  A span's self time is its
   duration minus the time its children cover; children of one span run
   one after another on the span's own thread, so that cover is the sum
   of their durations. *)
let totals b =
  let child = Array.make b.len 0. in
  for i = 0 to b.len - 1 do
    let p = b.parents.(i) in
    if p >= 0 then child.(p) <- child.(p) +. duration b i
  done;
  List.filter_map
    (fun nm ->
      let total = ref 0. and self = ref 0. and count = ref 0 in
      for i = 0 to b.len - 1 do
        if b.names.(i) = nm then begin
          total := !total +. duration b i;
          self := !self +. (duration b i -. child.(i));
          incr count
        end
      done;
      if !count = 0 then None else Some (nm, !count, !total, !self))
    all_names

let total_of b nm =
  List.fold_left
    (fun acc (n, _, total, _) -> if n = nm then acc +. total else acc)
    0. (totals b)

(* One span per line: [thread, index, name, start_s, end_s, parent, seq]. *)
let write_spans oc b =
  for i = 0 to b.len - 1 do
    Printf.fprintf oc "[%S,%d,%S,%.9f,%.9f,%d,%d]\n" b.thread i
      (string_of_name b.names.(i)) b.starts.(i) b.stops.(i) b.parents.(i)
      b.seqs.(i)
  done
