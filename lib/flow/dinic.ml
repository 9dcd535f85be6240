(* Standard Dinic: BFS level graph + blocking-flow DFS with iterator
   pruning.  Edges are stored in one array; edge i and i lxor 1 are a
   forward/residual pair. *)

type edge = { dst : int; mutable cap : float; original : float; src : int }

type t = {
  n : int;
  source : int;
  sink : int;
  mutable edges : edge array;
  mutable n_edges : int;
  adj : int list array;  (* node -> edge indices, reversed order *)
  mutable level : int array;
  mutable iter : int list array;
}

let create ~n_nodes ~source ~sink =
  if n_nodes < 2 || source < 0 || source >= n_nodes || sink < 0
     || sink >= n_nodes || source = sink
  then invalid_arg "Dinic.create: bad node layout";
  {
    n = n_nodes;
    source;
    sink;
    edges = Array.make 16 { dst = 0; cap = 0.0; original = 0.0; src = 0 };
    n_edges = 0;
    adj = Array.make n_nodes [];
    level = [||];
    iter = [||];
  }

let push_edge t e =
  if t.n_edges = Array.length t.edges then begin
    let bigger = Array.make (2 * t.n_edges) e in
    Array.blit t.edges 0 bigger 0 t.n_edges;
    t.edges <- bigger
  end;
  t.edges.(t.n_edges) <- e;
  t.n_edges <- t.n_edges + 1

let add_edge t ~src ~dst ~capacity =
  if src < 0 || src >= t.n || dst < 0 || dst >= t.n then
    invalid_arg "Dinic.add_edge: node out of range";
  if Float.is_nan capacity || capacity < 0.0 then
    invalid_arg "Dinic.add_edge: negative capacity";
  let fwd = t.n_edges in
  push_edge t { dst; cap = capacity; original = capacity; src };
  push_edge t { dst = src; cap = 0.0; original = 0.0; src = dst };
  t.adj.(src) <- fwd :: t.adj.(src);
  t.adj.(dst) <- (fwd + 1) :: t.adj.(dst)

let eps = Speedscale_util.Feq.tol_guard

let bfs t =
  let level = Array.make t.n (-1) in
  level.(t.source) <- 0;
  let q = Queue.create () in
  Queue.push t.source q;
  while not (Queue.is_empty q) do
    let u = Queue.pop q in
    List.iter
      (fun ei ->
        let e = t.edges.(ei) in
        if e.cap > eps && level.(e.dst) < 0 then begin
          level.(e.dst) <- level.(u) + 1;
          Queue.push e.dst q
        end)
      t.adj.(u)
  done;
  t.level <- level;
  level.(t.sink) >= 0

let rec dfs t u pushed =
  if u = t.sink then pushed
  else begin
    let result = ref 0.0 in
    let rec try_edges () =
      match t.iter.(u) with
      | [] -> ()
      | ei :: rest ->
        let e = t.edges.(ei) in
        if e.cap > eps && t.level.(e.dst) = t.level.(u) + 1 then begin
          let d = dfs t e.dst (Float.min pushed e.cap) in
          if d > eps then begin
            e.cap <- e.cap -. d;
            t.edges.(ei lxor 1).cap <- t.edges.(ei lxor 1).cap +. d;
            result := d
          end
          else begin
            t.iter.(u) <- rest;
            try_edges ()
          end
        end
        else begin
          t.iter.(u) <- rest;
          try_edges ()
        end
    in
    try_edges ();
    !result
  end

let max_flow t =
  let total = ref 0.0 in
  while bfs t do
    t.iter <- Array.copy t.adj;
    let rec pump () =
      let f = dfs t t.source Float.infinity in
      if f > eps then begin
        total := !total +. f;
        pump ()
      end
    in
    pump ()
  done;
  !total

let flow_on t ~src ~dst =
  let acc = ref 0.0 in
  for i = 0 to t.n_edges - 1 do
    if i land 1 = 0 then begin
      let e = t.edges.(i) in
      if e.src = src && e.dst = dst then acc := !acc +. (e.original -. e.cap)
    end
  done;
  !acc

(* The last BFS of [max_flow] is the one that failed to reach the sink,
   so its level array marks exactly the residual-reachable nodes. *)
let source_side t =
  Array.init t.n (fun v -> v < Array.length t.level && t.level.(v) >= 0)
