#!/usr/bin/env python3
"""Build and run the psched serve benchmark.

    python3 perfbench/run.py --workload diurnal-k1 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a speedscale checkout.  The script builds the
benchmark program (perfbench/ocaml/pbench.exe) and `psched` from source with dune,
runs one measurement and prints its JSON result as the last line of
standard output.  Scratch files go to .perfbench/ in the checkout.
See perfbench/README.md for the workloads and metrics.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time

WORKLOADS = ("diurnal-k1", "datacenter-k4", "failover-diurnal-k2")
PBENCH = "perfbench/ocaml/pbench.exe"
PSCHED = "bin/psched.exe"
WORK_DIR = ".perfbench"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 165


def die(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build():
    for need in ("dune-project", "lib", "bin", "perfbench/ocaml/dune"):
        if not os.path.exists(need):
            die(f"not a speedscale checkout ({need} is missing)")
    cmd = ["dune", "build", "--root", ".", "./" + PBENCH, "./" + PSCHED]
    t0 = time.monotonic()
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S)
    except FileNotFoundError:
        die("dune is not installed")
    except subprocess.TimeoutExpired:
        die("build timed out")
    if proc.returncode != 0:
        die(f"build failed ({' '.join(cmd)})")
    print(f"perfbench: build {time.monotonic() - t0:.1f} s", file=sys.stderr)
    build_dir = os.path.join(os.environ.get("DUNE_BUILD_DIR", "_build"), "default")
    return os.path.join(build_dir, PBENCH), os.path.join(build_dir, PSCHED)


def pin_to_one_cpu():
    """Pin this process, and so pbench and its `psched serve`
    children, to the last CPU it may use.  The submitting thread and the
    worker domain then share that CPU.  Left free on two CPUs, the
    scheduler puts them on one CPU for some seconds and on two for
    others, and the closed-loop p50 jumps between two modes (about 12
    and 22 us on datacenter-k4, on a 2-vCPU host); pinned to two CPUs,
    the p99 depends on when the other virtual CPU gets to run."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    print(f"perfbench: pinned to cpu {cpu}", file=sys.stderr)


def run_pbench(argv):
    """Run pbench in its own process group, so that a timeout stops
    it and any `psched serve` child it started."""
    pin_to_one_cpu()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die("pbench timed out")
    return proc.returncode, out


def expected_metrics(trace):
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def check_result(line, trace):
    try:
        res = json.loads(line)
    except ValueError:
        die(f"pbench printed no JSON result: {line!r}", 1)
    if sorted(res) != ["attempted", "correct", "failed", "metrics"]:
        die(f"result has keys {sorted(res)}", 1)
    want = expected_metrics(trace)
    if sorted(res["metrics"]) != sorted(want):
        missing = sorted(set(want) - set(res["metrics"]))
        extra = sorted(set(res["metrics"]) - set(want))
        die(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}", 1)
    if res["attempted"] < 1:
        die("no operation was attempted", 1)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true",
                    help="run every workload at a tiny size through the "
                         "correctness and determinism checks")
    args = ap.parse_args()
    if not args.self_test and args.workload is None:
        ap.error("--workload is required")
    pbench, psched = build()
    if args.self_test:
        code, out = run_pbench([pbench, "smoke", "--psched", psched,
                                "--work-dir", os.path.join(WORK_DIR, "smoke")])
        sys.stdout.write(out)
        sys.exit(code)
    code, out = run_pbench([
        pbench, "run", "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--psched", psched, "--work-dir", WORK_DIR])
    lines = out.strip().splitlines()
    if code != 0 or not lines:
        die(f"pbench exited with code {code}", 1)
    check_result(lines[-1], args.trace == 1)
    print(lines[-1])


if __name__ == "__main__":
    main()
