(** Maximum flow (Dinic's algorithm) on small dense networks.

    Substrate for the classical deadline-scheduling feasibility test
    (Horn 1974): whether a set of jobs with windows fits on [m] migrating
    processors at a speed cap reduces to a bipartite job/interval flow
    network.  Dinic runs in [O(V^2 E)] — far more than enough for the
    [O(n^2)]-node networks scheduling produces.

    Capacities are floats; a relative tolerance decides saturation, which
    is safe here because all capacities are sums/products of instance
    data, not results of iterative computation. *)

type t
(** A flow network under construction / after solving. *)

val create : n_nodes:int -> source:int -> sink:int -> t
(** Raises [Invalid_argument] on out-of-range or equal source/sink. *)

val add_edge : t -> src:int -> dst:int -> capacity:float -> unit
(** Adds a directed edge (and its residual reverse edge).  Zero-capacity
    edges are permitted and simply useless.  Raises on negative capacity
    or out-of-range nodes. *)

val max_flow : t -> float
(** Runs Dinic to completion and returns the max-flow value.  The network
    keeps its residual state afterwards; call {!flow_on} to inspect. *)

val flow_on : t -> src:int -> dst:int -> float
(** Total flow currently routed on edges [src -> dst] (0 if none). *)

val source_side : t -> bool array
(** After {!max_flow}: [a.(v)] is [true] when node [v] is reachable from
    the source in the residual network — the source side of the minimal
    minimum cut.  All [false] before {!max_flow} has run. *)
