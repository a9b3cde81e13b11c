"""Benchmark of gpwlab: one workload, checked outputs, every metric by name and unit.

Run from the root of a checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of BENCHMARK.json with ``--trace 0``, its per-layer metrics with
``--trace 1``.  The lines before it list every metric the workload has,
the run's provenance and any failed operation.  The workload runs in
child processes (``worker.py``) with BLAS pinned to one thread; this
process imports neither numpy nor gpwlab.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

WORKLOADS = ("mesh-helmholtz-3d", "convected-3d", "converge-2d")
SETUP_PROBES = 4  # set-up-only child processes, besides the measuring one
DEADLINE_S = 170.0
HERE = Path(__file__).resolve().parent


def source_digest(root: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "gpwlab").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision(root: Path) -> str | None:
    """HEAD of the checkout, or None when it is not a git work tree of its own."""
    if not (root / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def child(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion and return the JSON object it printed last."""
    done = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        env=env,
        stdout=subprocess.PIPE,
        text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if done.returncode != 0:
        raise RuntimeError(f"worker exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--size", choices=("full", "tiny"), default="full", help="tiny: smoke-test inputs"
    )
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()

    if not (root / "src" / "gpwlab" / "__init__.py").is_file():
        print(f"error: no gpwlab source under {root / 'src'}", file=sys.stderr)
        return 2
    if args.seconds < 1 or args.seed < 0:
        print("error: --seconds must be at least 1 and --seed non-negative", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[name] = "1"  # each workload is one single-threaded process

    tag = f"{args.workload}-seed{args.seed}"
    workdir = root / ".perfbench" / "work" / f"{tag}-{os.getpid()}"
    common = [
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--size", args.size,
        "--workdir", str(workdir),
    ]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                setups.append(child(common + ["--setup-only"], env, deadline)["setup_s"])
        trace_out = root / ".perfbench" / "traces" / f"{tag}.json"
        result = child(
            common + ["--trace", str(args.trace), "--trace-out", str(trace_out)], env, deadline
        )
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as err:
        print(f"error: {args.workload} did not complete: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    metrics = {name: tuple(pair) for name, pair in result["metrics"].items()}
    if not args.trace:
        setups.append(result["setup_s"])
        metrics["setup_s"] = (statistics.median(setups), "s")
    provenance = dict(
        result["meta"],
        git_revision=git_revision(root),
        source_sha256=source_digest(root),
        nproc=len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        platform=platform.platform(),
        seconds=args.seconds,
        trace=args.trace,
        repetitions=result["reps"],
    )

    selected = {}
    for entry in wanted:
        value, unit = metrics[entry["name"]]
        if unit != entry["unit"]:
            raise ValueError(f"{entry['name']} is in {unit}, BENCHMARK.json says {entry['unit']}")
        selected[entry["name"]] = {"value": value, "unit": unit}

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} size={args.size}")
    print("provenance " + json.dumps(provenance, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"  {name:<42} {value:<24.12g} {unit}")
    failures = result["failures"]
    for failure in failures:
        print(f"failed: {failure}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": result["attempted"],
                "failed": len(failures),
                "metrics": selected,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
