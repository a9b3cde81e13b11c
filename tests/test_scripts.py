"""The experiment scripts run with their default arguments and report success."""
import os
import subprocess
import sys
from pathlib import Path

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
