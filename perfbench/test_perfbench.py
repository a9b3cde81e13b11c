"""Tests of the benchmark itself: smoke runs, negative controls and tracer patching.

Run from the repository root:  python3 -m pytest perfbench -q
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import worker  # noqa: E402
import workloads  # noqa: E402
from gpwlab import basis, cli, frame, layers, operators  # noqa: E402
from gpwlab.polycore import GradedPoly  # noqa: E402
from tracer import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = [entry["name"] for entry in SPEC["workloads"]]
# Metrics printed by name and unit on one workload only, before the result line.
OWN_METRICS = {
    "mesh-helmholtz-3d": {
        "split_s": "s",
        "element_ms_p50": "ms",
        "element_ms_tail": "ms",
        "element_count": "count",
        "error_rate": "ratio",
    },
    "convected-3d": {"verify_s": "s", "rank_s": "s", "error_rate": "ratio"},
    "converge-2d": {"verify_s": "s", "converge_s": "s", "error_rate": "ratio"},
}


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def test_workload_names_match_spec():
    assert sorted(NAMES) == sorted(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_prints_every_metric(workload, trace):
    done = run_bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: value["unit"] for name, value in result["metrics"].items()} == {
        entry["name"]: entry["unit"] for entry in wanted
    }
    table = {line.split()[0]: line.split()[-1] for line in lines if line.startswith("  ")}
    for name, unit in ({} if trace else OWN_METRICS[workload]).items():
        assert table[name] == unit


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__")
    )
    done = run_bench("converge-2d", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def warmed(name: str, workdir: Path):
    workload = workloads.WORKLOADS[name](3, "tiny", workdir)
    workload.warm_up()
    return workload


@pytest.mark.parametrize("workload", NAMES)
def test_corrupted_split_raises_error_rate(workload, tmp_path, monkeypatch):
    bench = warmed(workload, tmp_path)
    for module in (operators, cli):
        for name in ("make_helmholtz_split", "make_convected_split"):
            make = getattr(module, name)
            monkeypatch.setattr(
                module, name, lambda *a, _make=make, **k: frame.corrupted(_make(*a, **k))
            )
    result = worker.measure(bench, 0.1, trace=False)
    assert result["metrics"]["error_rate"][0] > 0


@pytest.mark.parametrize("workload", ["convected-3d", "converge-2d"])
def test_tampered_basis_raises_error_rate(workload, tmp_path, monkeypatch):
    bench = warmed(workload, tmp_path)
    verify = cli.COMMANDS["verify"]

    def verify_tampered(config, out, quiet):
        path = out / cli.BASIS_FILE
        records = json.loads(path.read_text())
        records[0]["phase"][-1]["re"] += 1e-3
        path.write_text(json.dumps(records))
        return verify(config, out, quiet)

    monkeypatch.setitem(cli.COMMANDS, "verify", verify_tampered)
    result = worker.measure(bench, 0.1, trace=False)
    assert result["metrics"]["error_rate"][0] > 0
    assert all(failure.startswith("verify:") for failure in result["failures"])


def test_tracer_patches_reimported_names_and_restores_them():
    originals = {
        "preimage": basis.preimage,
        "verify_split": cli.verify_split,
        "solve_layer": operators.solve_layer,
        "mul_truncated": GradedPoly.__dict__["mul_truncated"],
    }
    tracer = Tracer()
    tracer.install()
    try:
        assert basis.preimage is not originals["preimage"]
        assert cli.verify_split is not originals["verify_split"]
        assert operators.solve_layer is layers.solve_layer
        split = operators.make_helmholtz_split(GradedPoly.constant(2, 9.0), 4)
        basis.build_family(split, basis.unit_circle_directions(3))
        basis.build_family(split, basis.unit_circle_directions(3))
    finally:
        tracer.uninstall()
    assert basis.preimage is originals["preimage"]
    assert cli.verify_split is originals["verify_split"]
    assert operators.solve_layer is originals["solve_layer"]
    assert GradedPoly.__dict__["mul_truncated"] is originals["mul_truncated"]
    metrics = tracer.per_layer(reps=1)
    assert metrics["frame.preimage.calls"][0] == 6
    assert metrics["layers.solve_layer.calls"][0] == 6 * split.layer_count
    assert metrics["basis.build_gpw.redundant_ratio"][0] == 0.5
    assert all(value >= 0 for name, (value, _) in metrics.items() if name.endswith(".self_s"))
