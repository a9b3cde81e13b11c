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
then exits 1.
"""
import argparse
import hashlib
import sys
import tempfile
from pathlib import Path

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


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("configs", nargs="+", help="run config JSON paths")
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    args = parser.parse_args()
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
