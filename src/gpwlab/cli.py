"""Command-line workflows: build a basis, verify it, rank and convergence studies.

Subcommands read one JSON config, write artifacts into an output
directory, and follow a fixed exit-code contract: 0 on success, 1 when an
acceptance check fails, 2 on config or usage errors.  Identical config
and seed produce byte-identical artifacts.
"""
from __future__ import annotations

import argparse
import json
import math
import reprlib
import sys
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

from . import approx, basis
from .frame import OperatorSplit, verify_split
from .operators import (
    CoefficientJet,
    as_jet,
    make_convected_split,
    make_helmholtz_split,
    omode_kappa_sq,
)
from .polycore import GradedPoly
from .serialize import csv_text, integer, json_text, real

SCHEMA = "gpw-run/1"
RESIDUAL_TOL = 1e-11
BASIS_FILE = "basis.json"
REPORT_FILE = "report.json"
RANK_FILE = "rank.json"
CONVERGENCE_JSON = "convergence.json"
CONVERGENCE_CSV = "convergence.csv"


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig:
    dim: int
    degree: int
    center: tuple[float, ...]
    direction_count: int
    radii: tuple[float, ...]
    seed: int
    operator: dict

    @classmethod
    def load(cls, path: str | Path) -> "RunConfig":
        return cls.from_dict(_read_json(Path(path), "config"))

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if raw.get("schema") != SCHEMA:
            raise ConfigError(f"config schema must be {SCHEMA!r}")
        try:
            dim = integer(raw["dimension"], "dimension")
            degree = integer(raw["degree"], "degree")
            center = tuple(real(c, "center") for c in raw["center"])
            count = integer(raw.get("directions", 1), "directions")
            radii = tuple(real(h, "h_values") for h in raw.get("h_values", ()))
            seed = integer(raw.get("seed", 0), "seed")
            operator = dict(raw["operator"])
        except (KeyError, TypeError, ValueError) as err:
            raise ConfigError(f"bad config field: {err}") from err
        if dim not in (2, 3):
            raise ConfigError("dimension must be 2 or 3")
        if degree < 2:
            raise ConfigError("degree must be at least 2")
        if len(center) != dim:
            raise ConfigError("center length must match the dimension")
        if count < 1:
            raise ConfigError("directions must be at least 1")
        if radii and (
            any(h <= 0 for h in radii) or any(a <= b for a, b in zip(radii, radii[1:]))
        ):
            raise ConfigError("h_values must be positive and strictly decreasing")
        if seed < 0 or seed >= 2**64:
            raise ConfigError("seed must fit in 64 bits")
        return cls(dim, degree, center, count, radii, seed, operator)


def _no_constant(text: str):
    """JSON's ``NaN``, ``Infinity`` and ``-Infinity`` literals are not numbers here."""
    raise ValueError(f"number {text!r} is not a finite float")


def _read_json(path: Path, what: str):
    """Parse a JSON file; anything unreadable is one ConfigError line.

    Numbers are parsed by ``json`` itself; the ``serialize`` rules that read
    them refuse the values a finite float cannot hold (1e999, 10**400).
    """
    try:
        return json.loads(path.read_text(encoding="utf-8"), parse_constant=_no_constant)
    except OSError as err:
        raise ConfigError(f"cannot read {what} {path}: {err.strerror or err}") from err
    except (ValueError, RecursionError) as err:
        raise ConfigError(f"unreadable {what} {path}: {err}") from err


def _parse_scalar(value) -> complex:
    """A number, or an [re, im] pair of numbers."""
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(real(value[0], "re"), real(value[1], "im"))
    return complex(real(value, "scalar"))


def _parse_coefficient(value, config: RunConfig) -> CoefficientJet:
    """A coefficient is a scalar, or a centered polynomial: a list of record objects.

    Polynomials are stored densely up to their degree, so a coefficient may
    not exceed the degree of the run.
    """
    if not (isinstance(value, list) and all(isinstance(record, dict) for record in value)):
        return CoefficientJet.constant(config.dim, _parse_scalar(value))
    try:
        poly = GradedPoly.from_records(config.dim, value, bound=config.degree)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad polynomial records: {err}") from err
    return as_jet(poly)


@dataclass(frozen=True)
class Problem:
    split: OperatorSplit
    manufactured: approx.ManufacturedProblem | None = None


def build_problem(config: RunConfig) -> Problem:
    """Operator split of a config; a missing or malformed operator field is a ConfigError."""
    try:
        return _build_problem(config)
    except ConfigError:
        raise
    except KeyError as err:
        raise ConfigError(f"missing operator field: {err}") from err
    except (TypeError, ValueError) as err:
        raise ConfigError(f"bad operator: {err}") from err


def _build_problem(config: RunConfig) -> Problem:
    op = dict(config.operator)
    kind = op.pop("type", None)
    if kind == "helmholtz":
        preset = op.pop("preset", None)
        if preset == "constant_kappa":
            jet = CoefficientJet.constant(config.dim, _parse_scalar(op.pop("kappa_sq")))
        elif preset == "omode_linear":
            profile = omode_kappa_sq(
                config.dim,
                _parse_scalar(op.pop("kappa0_sq")),
                real(op.pop("x_cut"), "x_cut"),
            )
            jet = CoefficientJet.from_polynomial(profile, config.center)
        elif preset == "manufactured":
            phase = _parse_coefficient(op.pop("phase"), config).poly
            problem = approx.manufactured_helmholtz(phase, config.center)
            return Problem(
                make_helmholtz_split(problem.jet, config.degree), manufactured=problem
            )
        elif preset is None:
            jet = _parse_coefficient(op.pop("kappa_sq_jet"), config)
        else:
            raise ConfigError(f"unknown helmholtz preset {reprlib.repr(preset)}")
        if op:
            raise ConfigError(f"unused operator fields: {reprlib.repr(sorted(op))}")
        return Problem(make_helmholtz_split(jet, config.degree))
    if kind == "convected":
        rho = _parse_coefficient(op.pop("rho"), config)
        mach_raw = op.pop("mach")
        kappa = _parse_scalar(op.pop("kappa"))
        if not isinstance(mach_raw, list) or len(mach_raw) != config.dim:
            raise ConfigError("mach must list one component per dimension")
        mach = [_parse_coefficient(m, config) for m in mach_raw]
        if op:
            raise ConfigError(f"unused operator fields: {reprlib.repr(sorted(op))}")
        return Problem(make_convected_split(rho, mach, kappa, config.degree))
    raise ConfigError(f"operator type must be helmholtz or convected, got {reprlib.repr(kind)}")


def _write(path: Path, text: str, quiet: bool) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err.strerror or err}") from err
    if not quiet:
        print(f"wrote {path}")


def cmd_build(config: RunConfig, out: Path, quiet: bool) -> int:
    problem = build_problem(config)
    dirs = basis.directions(config.dim, config.direction_count)
    family = basis.build_family(problem.split, dirs, center=config.center)
    _write(out / BASIS_FILE, basis.family_text(family), quiet)
    if not quiet:
        worst = max(phi.residual_norm for phi in family)
        print(f"built {len(family)} functions, worst residual {worst:.3e}")
    return 0


def cmd_verify(config: RunConfig, out: Path, quiet: bool) -> int:
    problem = build_problem(config)
    basis_path = out / BASIS_FILE
    records = _read_json(basis_path, "basis file")
    try:
        family, phases = basis._read_family(records, bound=config.degree)
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"unreadable basis file {basis_path}: {err}") from err
    label = problem.split.label
    if len(family) != config.direction_count:
        raise ConfigError(
            f"basis file {basis_path} has {len(family)} functions; "
            f"the config has {config.direction_count} directions"
        )
    for index, phi in enumerate(family):
        if (phi.degree, phi.center, phi.operator or label) != (config.degree, config.center, label):
            raise ConfigError(
                f"basis function {index} has p={phi.degree}, x0={phi.center}, operator "
                f"{reprlib.repr(phi.operator)}; the config has p={config.degree}, "
                f"x0={config.center}, {label!r}"
            )
    hypotheses = verify_split(problem.split, trials=50, seed=config.seed)
    residuals = basis._certificates(problem.split, phases).tolist()
    not_finite = [c.check for c in hypotheses.checks if not math.isfinite(c.max_violation)]
    not_finite += [f"function {i}" for i, r in enumerate(residuals) if not math.isfinite(r)]
    if not_finite:
        print(
            f"error: {label} verify has {len(not_finite)} non-finite values, "
            f"first in {not_finite[0]}",
            file=sys.stderr,
        )
        return 1
    functions = [
        {
            "index": index,
            "direction": basis._direction_payload(phi.direction),
            "residual": residual,
            "passed": residual <= RESIDUAL_TOL,
        }
        for index, (phi, residual) in enumerate(zip(family, residuals))
    ]
    passed = hypotheses.passed and all(f["passed"] for f in functions)
    report = {
        "hypotheses": hypotheses.to_dict(),
        "residual_tolerance": RESIDUAL_TOL,
        "functions": functions,
        "passed": passed,
    }
    _write(out / REPORT_FILE, json_text(report), quiet)
    failed_checks = [check for check in hypotheses.checks if not check.passed]
    if failed_checks:
        print(f"error: {label} {_failed_check_line(failed_checks)}", file=sys.stderr)
    if not quiet:
        failed = [f["index"] for f in functions if not f["passed"]]
        state = "all checks passed" if passed else f"FAILED (functions {failed})"
        print(f"verify: {state}")
    return 0 if passed else 1


def _failed_check_line(failed) -> str:
    """The first failed hypothesis check: its worst violation, trial and layer."""
    check = failed[0]
    where = f"trial {check.trial}" + ("" if check.layer is None else f", layer {check.layer}")
    more = f" ({len(failed) - 1} more checks failed)" if len(failed) > 1 else ""
    return (
        f"check {check.check} failed: violation {check.max_violation:.3e} > "
        f"{check.tolerance:.1e} at {where}{more}"
    )


def cmd_rank(config: RunConfig, out: Path, quiet: bool) -> int:
    problem = build_problem(config)
    dirs = basis.directions(config.dim, config.direction_count)
    gpw = basis.build_family(problem.split, dirs, center=config.center)
    plane = basis.plane_wave_family(problem.split, dirs, center=config.center)
    report = approx.rank_comparison(gpw, plane)
    _write(out / RANK_FILE, json_text(report.to_dict()), quiet)
    if not quiet:
        print(
            f"rank: plane {report.plane_rank}, generalized {report.gpw_rank} "
            f"({config.direction_count} directions, degree {config.degree})"
        )
    return 0


def cmd_converge(config: RunConfig, out: Path, quiet: bool) -> int:
    problem = build_problem(config)
    if problem.manufactured is None:
        raise ConfigError("converge needs the manufactured operator preset")
    if len(config.radii) < 4:
        raise ConfigError("converge needs at least 4 h_values")
    dirs = basis.directions(config.dim, config.direction_count)
    family = basis.build_family(problem.split, dirs, center=config.center)
    report = approx.convergence_study(
        problem.manufactured.solution,
        family,
        config.radii,
        metadata={
            "operator": problem.split.label,
            "dimension": config.dim,
            "degree": config.degree,
            "directions": config.direction_count,
            "seed": config.seed,
        },
    )
    _write(out / CONVERGENCE_JSON, json_text(report.to_dict()), quiet)
    _write(out / CONVERGENCE_CSV, csv_text(("h", "error", "slope"), report.csv_rows()), quiet)
    if not quiet:
        state = "exact" if report.exact else f"slope {report.slope:.3f}"
        print(f"converge: {state}, threshold {report.threshold:.3f}, passed={report.passed}")
    return 0 if report.passed else 1


COMMANDS = {
    "build": cmd_build,
    "verify": cmd_verify,
    "rank": cmd_rank,
    "converge": cmd_converge,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="gpwlab",
        description="Build and study quasi-Trefftz bases of generalized plane waves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("build", "construct a basis and write basis.json"),
        ("verify", "check split hypotheses and the residuals of a basis file"),
        ("rank", "Taylor-truncation ranks of the plane-wave and generalized families"),
        ("converge", "best-approximation convergence study on a manufactured problem"),
    ):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="run config JSON path")
        cmd.add_argument("--out", default=".", help="output directory")
        cmd.add_argument("--seed", type=int, default=None, help="override the config seed")
        cmd.add_argument("--quiet", action="store_true")
    args = parser.parse_args(argv)
    try:
        config = RunConfig.load(args.config)
        if args.seed is not None:
            if args.seed < 0 or args.seed >= 2**64:
                raise ConfigError("seed must fit in 64 bits")
            config = replace(config, seed=args.seed)
        return COMMANDS[args.command](config, Path(args.out), args.quiet)
    except ConfigError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except basis.CertificateError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
