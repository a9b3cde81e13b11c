#!/usr/bin/env python3
"""sha256 of every CLI artifact of some configs at some seeds.

For each config and seed, runs the gpwlab subcommands that apply to the
config in a fresh temporary directory, with ``--seed`` set to that seed:
build, verify and rank always, converge for the manufactured preset with
at least four radii.  Prints one ``<sha256>  <config>/<seed>/<artifact>``
line per artifact written, in the format of ``sha256sum``.

Two source trees write byte-identical artifacts exactly when they print
the same lines, so put each tree's ``src`` on PYTHONPATH in turn:

    PYTHONPATH=src python3 scripts/artifact_digests.py a.json b.json --seeds 1 7 42

A subcommand that exits non-zero is reported on stderr, and the script
then exits 1.  Since the SVD's bits depend on OpenBLAS's CPU kernels, the
script first prints one ``blas:`` line to stderr: the numpy version, the
config string of the OpenBLAS numpy bundles ("unknown" if it has none)
and ``OPENBLAS_CORETYPE`` if it is set.  stdout holds the digests alone.
"""
import argparse
import ctypes
import hashlib
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from gpwlab import cli

ARTIFACTS = {
    "build": (cli.BASIS_FILE,),
    "verify": (cli.REPORT_FILE,),
    "rank": (cli.RANK_FILE,),
    "converge": (cli.CONVERGENCE_JSON, cli.CONVERGENCE_CSV),
}


def commands(config_path: str) -> list[str]:
    config = cli.RunConfig.load(config_path)
    converges = cli.build_problem(config).manufactured is not None and len(config.radii) >= 4
    return ["build", "verify", "rank"] + (["converge"] if converges else [])


def blas_line() -> str:
    try:
        from numpy._core import _multiarray_umath

        get_config = ctypes.CDLL(_multiarray_umath.__file__).scipy_openblas_get_config64_
        get_config.restype = ctypes.c_char_p
        config = " ".join(get_config().decode().split())
    except (ImportError, OSError, AttributeError):
        config = "unknown"
    line = f"blas: numpy {np.__version__}; {config}"
    coretype = os.environ.get("OPENBLAS_CORETYPE")
    return line if coretype is None else f"{line}; OPENBLAS_CORETYPE={coretype}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="+", help="run config JSON paths")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
    print(blas_line(), file=sys.stderr)
    try:
        plans = {config: commands(config) for config in args.configs}
    except cli.ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    status = 0
    for config, plan in plans.items():
        for seed in args.seeds:
            with tempfile.TemporaryDirectory() as out:
                for command in plan:
                    code = cli.main(
                        [command, "--config", config, "--out", out, "--seed", str(seed), "--quiet"]
                    )
                    if code != 0:
                        print(f"{config} seed {seed}: {command} exited {code}", file=sys.stderr)
                        status = 1
                    for name in ARTIFACTS[command]:
                        path = Path(out) / name
                        if path.exists():
                            digest = hashlib.sha256(path.read_bytes()).hexdigest()
                            print(f"{digest}  {config}/{seed}/{name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
