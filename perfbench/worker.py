"""Child process of the benchmark: set one workload up, then measure it or stop.

Prints one JSON line.  ``run.py`` starts it with BLAS threads pinned and
``src`` on the import path; run it directly only the same way.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path


def _repeat(workload, seconds: float, first_rep: int, min_reps: int, tracer=None) -> list:
    """Run repetitions while the next one is expected to end inside ``seconds``."""
    outcomes = []
    start = time.perf_counter()
    while True:
        if tracer is not None:
            tracer.start_repetition(first_rep + len(outcomes))
        outcomes.append(workload.run())
        elapsed = time.perf_counter() - start
        if len(outcomes) >= min_reps and elapsed * (len(outcomes) + 1) / len(outcomes) > seconds:
            return outcomes


def end_to_end(outcomes: list) -> dict[str, tuple[float, str]]:
    """Untraced metrics as (value, unit): medians over repetitions."""
    metrics = {
        "wall_s": (statistics.median([o.wall_s for o in outcomes]), "s"),
        "build_s": (statistics.median([o.stages["build"] for o in outcomes]), "s"),
    }
    rates = [o.gpws / o.stages["build"] if o.stages["build"] else 0.0 for o in outcomes]
    metrics["gpw_per_s"] = (statistics.median(rates), "1/s")
    for stage in outcomes[0].stages:
        if stage != "build":
            metrics[f"{stage}_s"] = (statistics.median([o.stages[stage] for o in outcomes]), "s")
    latencies = sorted(t for o in outcomes for t in o.element_s)
    if latencies:
        n = len(latencies)
        # highest order statistic with at least ten samples above it
        tail = n - 11 if n > 10 else n - 1
        metrics["element_ms_p50"] = (1e3 * statistics.median(latencies), "ms")
        metrics["element_ms_tail"] = (1e3 * latencies[tail], "ms")
        metrics["element_tail_percentile"] = (100.0 * (tail + 1) / n, "%")
        metrics["element_count"] = (float(n), "count")
    return metrics


def measure(
    workload, seconds: float, trace: bool, trace_path: Path | None = None, meta=None
) -> dict:
    """Untraced repetitions (the first half of the window when tracing), then traced ones."""
    plain = _repeat(workload, seconds / 2 if trace else seconds, 0, 1 if trace else 2)
    traced: list = []
    if trace:
        from tracer import Tracer  # imports gpwlab, so not at module level (set-up is timed)

        tracer = Tracer()
        tracer.install()
        try:
            traced = _repeat(workload, seconds / 2, len(plain), 1, tracer)
        finally:
            tracer.uninstall()
    attempted, failures = workload.final_check()
    for outcome in plain + traced:
        attempted += outcome.attempted
        failures += outcome.failures

    if trace:
        metrics = tracer.per_layer(len(traced))
        traced_wall = statistics.median(o.wall_s for o in traced)
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        plain_wall = statistics.median(o.wall_s for o in plain)
        metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
        if trace_path is not None:
            tracer.write(trace_path, dict(meta or {}, reps=[o.stages for o in traced]))
    else:
        metrics = end_to_end(plain)
        metrics["error_rate"] = (len(failures) / attempted, "ratio")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB")
    return {
        "attempted": attempted,
        "failures": failures,
        "reps": len(plain) + len(traced),
        "metrics": {name: list(pair) for name, pair in metrics.items()},
    }


def blas_version(numpy) -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--trace-out", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    started = time.perf_counter()
    import numpy
    import workloads  # imports gpwlab: part of the measured set-up

    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, args.workdir)
    workload.warm_up()
    setup_s = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "size": args.size,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_version(numpy),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
    }
    result = measure(workload, args.seconds, bool(args.trace), args.trace_out, meta)
    result["setup_s"] = setup_s
    result["meta"] = meta
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
