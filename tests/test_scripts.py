"""The scripts under scripts/ run and print what they promise."""
import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]

EXPECTED = {
    "run_convergence.py": "passed=True",
    "run_rank_study.py": "generalized 9, cap 9",
    "run_residual_order.py": "passed=True",
}


@pytest.mark.parametrize("script", sorted(p.name for p in (ROOT / "scripts").glob("run_*.py")))
def test_script_runs_with_defaults(script):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True,
        text=True,
        timeout=60,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert result.returncode == 0, result.stderr
    assert EXPECTED[script] in result.stdout.splitlines()[-1]


def test_artifact_digests_repeat(tmp_path, monkeypatch):
    config = {
        "schema": "gpw-run/1",
        "dimension": 2,
        "degree": 3,
        "center": [0.1, -0.2],
        "directions": 7,
        "h_values": [0.4, 0.2, 0.1, 0.05],
        "operator": {
            "type": "helmholtz",
            "preset": "manufactured",
            "phase": [
                {"exponents": [1, 0], "re": 0.0, "im": 1.8},
                {"exponents": [0, 1], "re": -0.0, "im": 0.9},
                {"exponents": [2, 0], "re": 0.1, "im": 0.05},
            ],
        },
    }
    manufactured = tmp_path / "manufactured.json"
    manufactured.write_text(json.dumps(config))
    constant = tmp_path / "constant.json"
    operator = {"type": "helmholtz", "preset": "constant_kappa", "kappa_sq": 25.0}
    constant.write_text(json.dumps(dict(config, operator=operator)))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = [
        sys.executable, str(ROOT / "scripts" / "artifact_digests.py"),
        str(manufactured), str(constant), "--seeds", "1", "7",
    ]
    runs = [
        subprocess.run(
            command, capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": path},
        )
        for _ in range(2)
    ]
    assert [run.returncode for run in runs] == [0, 0], runs[0].stderr
    assert runs[0].stdout == runs[1].stdout
    # one line on stderr records numpy's OpenBLAS; stdout holds the digests alone
    assert runs[0].stderr == runs[1].stderr
    (blas,) = runs[0].stderr.splitlines()
    assert blas.startswith(f"blas: numpy {np.__version__}; ")
    assert ("OPENBLAS_CORETYPE=" in blas) == ("OPENBLAS_CORETYPE" in os.environ)
    script = ROOT / "scripts" / "artifact_digests.py"
    spec = importlib.util.spec_from_file_location("digests", script)
    digests = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digests)
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert digests.blas_line().endswith("; OPENBLAS_CORETYPE=Haswell")
    lines = runs[0].stdout.splitlines()
    names = [line.split("  ", 1)[1] for line in lines]
    artifacts = ("basis.json", "report.json", "rank.json", "convergence.json", "convergence.csv")
    assert names[:5] == [f"{manufactured}/1/{name}" for name in artifacts]
    assert len(lines) == 2 * 5 + 2 * 3
    assert all(re.fullmatch(r"[0-9a-f]{64}  \S+/[17]/\S+", line) for line in lines)


# p=5 with 36 directions: large enough that OpenBLAS splits a BLAS projection of
# the fit across two threads, which rounds differently from one thread
MANUFACTURED_3D = {
    "schema": "gpw-run/1",
    "dimension": 3,
    "degree": 5,
    "center": [0.1, -0.2, 0.05],
    "directions": 36,
    "h_values": [0.4, 0.2, 0.1, 0.05],
    "operator": {
        "type": "helmholtz",
        "preset": "manufactured",
        "phase": [
            {"exponents": [1, 0, 0], "re": 0.0, "im": 0.96},
            {"exponents": [0, 1, 0], "re": 0.0, "im": 1.2},
            {"exponents": [0, 0, 1], "re": -0.0, "im": 1.28},
            {"exponents": [2, 0, 0], "re": 0.1, "im": 0.05},
            {"exponents": [0, 1, 1], "re": -0.2, "im": 0.15},
            {"exponents": [1, 1, 1], "re": 0.05, "im": -0.1},
            {"exponents": [0, 0, 3], "re": -0.08, "im": 0.05},
        ],
    },
}
AVX512 = ("AVX512_SPR", "AVX512_ICL", "X86_V4")


def converge_lines(tmp_path, **env):
    """The converge digest lines of MANUFACTURED_3D at seeds 1 and 7, from a child
    process with ``env`` added to its environment."""
    config = tmp_path / "manufactured-3d.json"
    config.write_text(json.dumps(MANUFACTURED_3D))
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "artifact_digests.py"), str(config),
         "--seeds", "1", "7"],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": path, **env},
    )
    assert run.returncode == 0, run.stderr
    lines = [line for line in run.stdout.splitlines() if "/convergence." in line]
    assert len(lines) == 4
    return lines


def test_converge_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    one = converge_lines(tmp_path, OPENBLAS_NUM_THREADS="1")
    assert converge_lines(tmp_path, OPENBLAS_NUM_THREADS="2") == one


def test_converge_bytes_do_not_depend_on_avx512(tmp_path):
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:
        pytest.skip("this numpy does not report its CPU features")
    if not all(__cpu_features__.get(feature) for feature in AVX512):
        pytest.skip("the CPU lacks " + " ".join(AVX512))
    default = converge_lines(tmp_path, OPENBLAS_NUM_THREADS="1")
    disabled = converge_lines(
        tmp_path, OPENBLAS_NUM_THREADS="1", NPY_DISABLE_CPU_FEATURES=" ".join(AVX512)
    )
    assert disabled == default
