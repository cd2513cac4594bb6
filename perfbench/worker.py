"""Child process of the benchmark: every measurement runs in a fresh interpreter.

    python3 perfbench/worker.py setup
    python3 perfbench/worker.py timed  WORKLOAD SEED SECONDS
    python3 perfbench/worker.py traced WORKLOAD SEED ROUNDS SPANS_PATH
    python3 perfbench/worker.py reference WORKLOAD

Each mode prints one JSON object as its last line of output.  The package
is imported from the checkout's src/ and nowhere else.
"""

import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_package():
    sys.path.insert(0, SRC)
    import enriques_invariants
    import enriques_invariants.cli  # noqa: F401  (the CLI is a submodule)

    if not os.path.abspath(enriques_invariants.__file__).startswith(SRC + os.sep):
        raise ImportError(f"enriques_invariants imported from outside {SRC}")
    return enriques_invariants


def setup_probe() -> dict:
    """Fresh-interpreter set-up: import the CLI and load the database.

    Only sys, os and time are imported before the clock starts, so the
    standard-library modules the package pulls in are part of the cost.
    """
    t0 = time.perf_counter()
    pkg = import_package()
    pkg.all_tabulated_components()
    raw = time.perf_counter() - t0
    speed = sorted(kernel()[0] for _ in range(7))[3]
    return {"setup_s": raw * KERNEL_REFERENCE_NS / speed, "raw_setup_s": raw}


def percentile(sorted_values, pct: float) -> float:
    """Linear interpolation between closest ranks."""
    pos = (len(sorted_values) - 1) * pct / 100
    lo = int(pos)
    hi = min(lo + 1, len(sorted_values) - 1)
    return sorted_values[lo] + (sorted_values[hi] - sorted_values[lo]) * (pos - lo)


# Shared virtual cores change speed by 10-20 % from one second to the next.
# A fixed pure-Python kernel, timed between ops, tracks that; times are
# reported at the kernel's reference speed, i.e. scaled by
# KERNEL_REFERENCE_NS / (kernel time measured around the op).
KERNEL_REFERENCE_NS = 1_500_000  # its typical time on a 2-core x86-64 VM, CPython 3.11
KERNEL_EVERY_NS = 50_000_000  # op time between two kernel samples
KERNEL_WINDOW = 5  # samples on each side of an op in its speed estimate


def kernel() -> tuple[int, int]:
    """Time (wall ns, CPU ns) of fixed integer work that touches no package code."""
    c0, t0 = time.process_time_ns(), time.perf_counter_ns()
    s = 0
    for i in range(20000):
        s += i * i % 7
    return time.perf_counter_ns() - t0, time.process_time_ns() - c0


def speed_scale(samples: list[int], at: int) -> float:
    """KERNEL_REFERENCE_NS over the median kernel time of the samples near `at`."""
    lo = max(0, at - KERNEL_WINDOW)
    window = sorted(samples[lo : at + KERNEL_WINDOW + 1])
    return KERNEL_REFERENCE_NS / window[len(window) // 2]


def run_loop(workload, pkg, seed, *, seconds=None, max_rounds=None, tracer=None):
    """Closed loop over whole rounds of the seeded stream.

    Stops after `max_rounds` rounds, or at the first round boundary once the
    summed op wall time reaches `seconds` (never before RSS_ROUNDS rounds).
    Only the op call is timed; checks and kernel samples run between ops.
    """
    import resource

    import workloads as W

    checker = W.Checker(workload, pkg)
    clock, cpu = time.perf_counter_ns, time.process_time_ns
    lat_ns: list[int] = []
    cpu_ns: list[int] = []
    sample_of_op: list[int] = []  # index of the first kernel sample after each op
    kernel_wall, kernel_cpu = [], []
    since_kernel = units = out_bytes = failed = done = 0
    rss_mib = None
    errors: list[str] = []

    def sample():
        w, c = kernel()
        kernel_wall.append(w)
        kernel_cpu.append(c)

    sample()
    for rnd in W.rounds(workload, seed):
        for item in rnd:
            op = len(lat_ns)
            if tracer is not None:
                tracer.begin(op)
            c0, t0 = cpu(), clock()
            try:
                code, out = W.run_op(workload, pkg, item)
            except Exception as exc:  # an op that raises is a failed op
                code, out = None, exc
            t1, c1 = clock(), cpu()
            if tracer is not None:
                tracer.end()
            lat_ns.append(t1 - t0)
            cpu_ns.append(c1 - c0)
            sample_of_op.append(len(kernel_wall))
            since_kernel += t1 - t0
            if since_kernel >= KERNEL_EVERY_NS:
                sample()
                since_kernel = 0
            if isinstance(out, Exception):
                failed += 1
                errors.append(f"op {op} {item}: raised {out!r}")
                continue
            if isinstance(out, str):
                out_bytes += len(out.encode())
            try:
                units += checker.check(item, code, out)
            except Exception as exc:  # a wrong or malformed answer
                failed += 1
                errors.append(f"op {op} {item}: {exc!r}")
        done += 1
        if done == W.RSS_ROUNDS[workload]:
            rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if max_rounds is not None and done >= max_rounds:
            break
        if seconds is not None and sum(lat_ns) >= seconds * 1e9 and rss_mib is not None:
            break
    sample()
    for line in errors[:5]:
        print(line, file=sys.stderr)
    lat = [
        x * speed_scale(kernel_wall, k) / 1e6 for x, k in zip(lat_ns, sample_of_op)
    ]
    cpu_ms = [
        x * speed_scale(kernel_cpu, k) / 1e6 for x, k in zip(cpu_ns, sample_of_op)
    ]
    tail_pct = W.TAIL_PERCENTILE[workload]
    ordered = sorted(lat)
    tail = percentile(ordered, tail_pct)
    return {
        "ops": len(lat),
        "rounds": done,
        "wall_s": sum(lat) / 1e3,
        "cpu_s": sum(cpu_ms) / 1e3,
        "latency_p50_ms": percentile(ordered, 50),
        "latency_tail_ms": tail,
        "tail_percentile": tail_pct,
        "samples_beyond_tail": sum(1 for x in ordered if x > tail),
        "raw_wall_s": sum(lat_ns) / 1e9,
        "raw_cpu_s": sum(cpu_ns) / 1e9,
        "raw_latency_p50_ms": percentile(sorted(lat_ns), 50) / 1e6,
        "kernel_samples": len(kernel_wall),
        "failed": failed,
        "units": units,
        "output_bytes": out_bytes,
        "peak_rss_mib": rss_mib,
    }


def warm_up(workload, pkg) -> None:
    """Load the database and run one op on an input outside the stream."""
    import workloads as W

    pkg.all_tabulated_components()
    W.run_op(workload, pkg, W.first_items(workload, "warmup", 1)[0])


def reference(workload, pkg) -> dict:
    """Digest of the answers to the first REFERENCE_OPS ops of the default seed."""
    import workloads as W

    checker = W.Checker(workload, pkg)
    failed = 0
    for item in W.first_items(workload, W.DEFAULT_SEED, W.REFERENCE_OPS[workload]):
        try:
            code, out = W.run_op(workload, pkg, item)
            checker.check(item, code, out)
        except Exception as exc:  # reported, and the digest will not match
            failed += 1
            print(f"reference op {item}: {exc!r}", file=sys.stderr)
    return {
        "workload": workload,
        "seed": W.DEFAULT_SEED,
        "ops": W.REFERENCE_OPS[workload],
        "failed": failed,
        "sha256": checker.hexdigest(),
    }


def coh_cache(pkg):
    info = getattr(pkg.cohomology.coh, "cache_info", None)
    if info is None:
        return None
    c = info()
    return {"hits": c.hits, "misses": c.misses, "entries": c.currsize}


def main(argv) -> dict:
    mode = argv[0]
    if mode == "setup":
        return setup_probe()
    pkg = import_package()
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    import workloads as W

    workload = argv[1]
    if mode == "reference":
        return reference(workload, pkg)
    seed = int(argv[2])
    warm_up(workload, pkg)
    if mode == "timed":
        out = run_loop(workload, pkg, seed, seconds=float(argv[3]))
        ref = reference(workload, pkg)
        out["reference_ok"] = (
            ref["failed"] == 0
            and ref["sha256"] == W.recorded_digests()[workload]["sha256"]
        )
        return out
    if mode == "traced":
        import tracing

        tracer = tracing.Tracer(pkg)
        tracer.install()
        before = coh_cache(pkg)
        out = run_loop(workload, pkg, seed, max_rounds=int(argv[3]), tracer=tracer)
        after = coh_cache(pkg)
        tracer.uninstall()
        delta = None
        if before is not None:
            delta = {
                "hits": after["hits"] - before["hits"],
                "misses": after["misses"] - before["misses"],
                "entries": after["entries"],
            }
        os.makedirs(os.path.dirname(argv[4]), exist_ok=True)
        tracer.write(argv[4])
        scale = out["wall_s"] / out["raw_wall_s"]
        layers = tracer.layer_metrics(out["ops"], delta, out["output_bytes"], scale)
        out["layers"] = layers
        out["coh_cache_present"] = before is not None
        return out
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    result = main(sys.argv[1:])
    import json

    print(json.dumps(result))
