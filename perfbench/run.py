"""Benchmark of the enriques_invariants package: one caller, closed loop.

    python3 perfbench/run.py --workload analyze-mix --seed 0 --seconds 15 --trace 0

Run from the root of a checkout; the package is imported from its src/.
Every measurement happens in a fresh child interpreter (perfbench/worker.py).

--trace 0 prints the end-to-end metrics: set-up time of a fresh interpreter
(median of several), throughput, CPU per op, latency median and tail, peak
RSS after a fixed amount of work, and result classes per second.
--trace 1 runs the same rounds twice in fresh interpreters, untraced and
traced, and prints the per-layer metrics plus the tracing overhead.

The last line of output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}.
Everything before it is a readable summary.  Runs also leave a record with
machine details under perfbench/out/.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SETUP_PROBES = 5  # before and again after the timed run
DEADLINE_S = 170


def child(args, deadline):
    """Run worker.py in a fresh interpreter and return its JSON result."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise TimeoutError("benchmark deadline passed")
    proc = subprocess.run(
        [sys.executable, WORKER, *map(str, args)],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args} exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(workload, seed, seconds, deadline):
    child(["setup"], deadline)  # writes byte-code caches; not timed
    probes = [child(["setup"], deadline) for _ in range(SETUP_PROBES)]
    run = child(["timed", workload, seed, seconds], deadline)
    probes += [child(["setup"], deadline) for _ in range(SETUP_PROBES)]
    ops = run["ops"]
    metrics = {
        "setup_s": (statistics.median(p["setup_s"] for p in probes), "s"),
        "ops_per_s": (ops / run["wall_s"], "1/s"),
        "cpu_ms_per_op": (1000 * run["cpu_s"] / ops, "ms"),
        "latency_p50_ms": (run["latency_p50_ms"], "ms"),
        "latency_tail_ms": (run["latency_tail_ms"], "ms"),
        "peak_rss_mib": (run["peak_rss_mib"], "MiB"),
        "classes_per_s": (run["units"] / run["wall_s"], "1/s"),
    }
    notes = {
        "fail_ratio": run["failed"] / ops,
        "tail_percentile": run["tail_percentile"],
        "samples_beyond_tail": run["samples_beyond_tail"],
        "rounds": run["rounds"],
        "kernel_samples": run["kernel_samples"],
        "raw_setup_s": statistics.median(p["raw_setup_s"] for p in probes),
        "raw_ops_per_s": ops / run["raw_wall_s"],
        "raw_cpu_ms_per_op": 1000 * run["raw_cpu_s"] / ops,
        "raw_latency_p50_ms": run["raw_latency_p50_ms"],
    }
    correct = run["failed"] == 0 and run["reference_ok"]
    return correct, ops, run["failed"], metrics, notes


def per_layer(workload, seed, seconds, deadline):
    plain = child(["timed", workload, seed, seconds / 2], deadline)
    spans = os.path.join(OUT, f"spans-{workload}-seed{seed}.jsonl")
    traced = child(["traced", workload, seed, plain["rounds"], spans], deadline)
    metrics = {name: tuple(v) for name, v in traced["layers"].items()}
    metrics["trace.overhead_ratio"] = (traced["wall_s"] / plain["wall_s"], "ratio")
    notes = {
        "rounds": plain["rounds"],
        "coh_cache_present": traced["coh_cache_present"],
        "spans": os.path.relpath(spans, ROOT),
    }
    failed = plain["failed"] + traced["failed"]
    correct = failed == 0 and plain["reference_ok"]
    return correct, plain["ops"] + traced["ops"], failed, metrics, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "enriques_invariants", "__init__.py")):
        print(f"error: no package source under {ROOT}/src", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    measure = per_layer if ns.trace else end_to_end
    correct, attempted, failed, metrics, notes = measure(
        ns.workload, ns.seed, ns.seconds, deadline
    )
    machine = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }
    print(f"workload {ns.workload}, seed {ns.seed}, {ns.seconds} s, trace {ns.trace}")
    print("machine " + ", ".join(f"{k} {v}" for k, v in machine.items()))
    for k, v in notes.items():
        print(f"  {k}: {v}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:14.6g} {unit}")
    os.makedirs(OUT, exist_ok=True)
    record = os.path.join(OUT, f"{ns.workload}-seed{ns.seed}-trace{ns.trace}.json")
    with open(record, "w") as fh:
        json.dump({"args": vars(ns), "machine": machine, "notes": notes,
                   "metrics": metrics, "correct": correct}, fh, indent=1)
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
