(** Domain-parallel ordered map for the benchmark harness.

    The slow exact-OPT sweeps are embarrassingly parallel: every experiment
    is a pure function of its hard-coded seeds, so fanning them out across
    OCaml 5 domains changes wall-clock only.  Two guarantees make the
    fan-out observably equivalent to a sequential run:

    - {e ordered merge}: results come back in input order, whatever the
      completion order was;
    - {e no shared state}: each task must derive its randomness from its
      own fixed seed ([Speedscale_util.Rand.make]); the runner adds none.
      Tasks that honor this produce byte-identical output at any [jobs]
      (the determinism property pinned in [test_bench.ml]).

    Caveat: wall-clock {e timings} measured inside concurrently running
    tasks are noisier than sequential ones; measure speed with perfbench
    (see doc/BENCHMARKING.md). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count], clamped to [1..8]. *)

val map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [map ~jobs f xs] applies [f] to every element, running up to [jobs]
    domains ([jobs <= 1] degenerates to [List.map], no domains spawned).
    Results are in input order.  If any application raises, the exception
    of the {e earliest} failed index is re-raised after all domains have
    joined, so failure reporting is deterministic too. *)
