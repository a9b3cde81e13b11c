"""The three benchmark workloads: inputs from a seed, one timed repetition, output checks.

Every gpwlab call goes through a module attribute (``operators.make_helmholtz_split``,
``cli.main``) so that the tracer's patches are the functions that run.
"""
from __future__ import annotations

import itertools
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from gpwlab import basis, cli, frame, operators, serialize
from gpwlab.polycore import GradedPoly, monomials_up_to

CERTIFICATE_TOL = 1e-11


def full_rank(dim: int, degree: int) -> int:
    return (degree + 1) ** 2 if dim == 3 else 2 * degree + 1


@dataclass
class Outcome:
    """One repetition of a workload's timed sequence."""

    stages: dict[str, float]
    gpws: int  # certified by the build stage
    attempted: int
    failures: list[str]
    element_s: list[float] = field(default_factory=list)

    @property
    def wall_s(self) -> float:
        return sum(self.stages.values())


class MeshHelmholtz:
    """Quasi-Trefftz element sweep through the library, one family per element.

    The medium is kappa^2 = K0_SQ * (1 + 0.1 * c(x)) with c a dense cubic whose
    coefficients are uniform on [-1, 1]; the elements are the cells of a
    24^3 grid on [-0.5, 0.5]^3, swept in raster order without wrapping, so no
    element repeats within a run.  A repetition is a block of elements.
    """

    name = "mesh-helmholtz-3d"
    K0_SQ = 16.0
    CELLS = 24

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.degree = 6 if size == "full" else 3
        self.block = 8 if size == "full" else 2
        self.directions = basis.unit_sphere_directions(full_rank(3, self.degree))
        coeffs = {(0, 0, 0): self.K0_SQ}
        for index in monomials_up_to(3, 3)[1:]:
            coeffs[index] = self.K0_SQ * 0.1 * rng.uniform(-1.0, 1.0)
        self.medium = GradedPoly(3, coeffs)
        step = 1.0 / self.CELLS
        self.centres = [
            tuple(-0.5 + (i + 0.5) * step for i in cell)
            for cell in itertools.product(range(self.CELLS), repeat=3)
        ]
        self.swept = 0
        self.first: tuple | None = None

    def _element(self, centre, directions) -> tuple[list, float, float]:
        """The family of one element, with its split set-up and build times."""
        t0 = time.perf_counter()
        jet = operators.CoefficientJet.from_polynomial(self.medium, centre)
        split = operators.make_helmholtz_split(jet, self.degree)
        t1 = time.perf_counter()
        family = basis.build_family(split, directions, center=centre)
        return family, t1 - t0, time.perf_counter() - t1

    def warm_up(self) -> None:
        # the grid has no cell centred at the origin
        self._element((0.0, 0.0, 0.0), self.directions[:2])

    def run(self) -> Outcome:
        if self.swept + self.block > len(self.centres):
            raise RuntimeError("element grid exhausted; lower --seconds")
        stages = {"split": 0.0, "build": 0.0}
        failures: list[str] = []
        element_s: list[float] = []
        gpws = 0
        for centre in self.centres[self.swept:self.swept + self.block]:
            try:
                family, split_s, build_s = self._element(centre, self.directions)
            except Exception as err:  # a failed element is counted, the sweep goes on
                failures.append(f"element {centre}: {type(err).__name__}: {err}")
                continue
            stages["split"] += split_s
            stages["build"] += build_s
            element_s.append(split_s + build_s)
            problem = self._check(family)
            if problem:
                failures.append(f"element {centre}: {problem}")
            else:
                gpws += len(family)
            if self.first is None:
                self.first = (centre, family)
        self.swept += self.block
        return Outcome(stages, gpws, self.block, failures, element_s)

    def _check(self, family) -> str | None:
        if len(family) != len(self.directions):
            return f"{len(family)} functions for {len(self.directions)} directions"
        worst = max(phi.residual_norm for phi in family)
        if not worst <= CERTIFICATE_TOL:
            return f"certificate {worst:.3e} > {CERTIFICATE_TOL:.0e}"
        return None

    def final_check(self) -> tuple[int, list[str]]:
        """Rebuild the first element, untimed: its basis file must be byte-identical."""
        if self.first is None:
            return 0, []
        centre, family = self.first
        again, _, _ = self._element(centre, self.directions)
        text = serialize.json_text(basis.family_to_records(family))
        if serialize.json_text(basis.family_to_records(again)) != text:
            return 1, [f"element {centre}: rebuilt family differs byte for byte"]
        return 1, []


class CliWorkload:
    """A fixed sequence of CLI subcommands on one seeded config, in one output directory."""

    name = ""
    commands: tuple[str, ...] = ()
    ARTIFACTS = {
        "build": ("basis.json",),
        "verify": ("report.json",),
        "rank": ("rank.json",),
        "converge": ("convergence.json", "convergence.csv"),
    }

    def __init__(self, seed: int, size: str, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.config = self.make_config(rng, size, seed)
        self.dim = self.config["dimension"]
        self.degree = self.config["degree"]
        self.workdir = workdir
        self.out = workdir / "out"
        self.config_path = workdir / "config.json"
        self.warm_path = workdir / "warm-up.json"
        workdir.mkdir(parents=True, exist_ok=True)
        with open(self.config_path, "w") as handle:
            json.dump(self.config, handle)
        with open(self.warm_path, "w") as handle:
            json.dump(dict(self.config, directions=2), handle)
        self.reference: dict[str, bytes] = {}

    def make_config(self, rng: np.random.Generator, size: str, seed: int) -> dict:
        raise NotImplementedError

    def _main(self, command: str, config: Path, out: Path) -> int:
        return cli.main([command, "--config", str(config), "--out", str(out), "--quiet"])

    def warm_up(self) -> None:
        """Every subcommand on two directions; verify through the library at one trial."""
        for command in self.commands:
            if command == "verify":
                warm = cli.RunConfig.load(self.warm_path)
                frame.verify_split(cli.build_problem(warm).split, trials=1, seed=0)
            else:
                self._main(command, self.warm_path, self.workdir / "warm-up")

    def run(self) -> Outcome:
        shutil.rmtree(self.out, ignore_errors=True)
        stages: dict[str, float] = {}
        failures: list[str] = []
        gpws = 0
        for command in self.commands:
            t0 = time.perf_counter()
            try:
                code = self._main(command, self.config_path, self.out)
            except Exception as err:  # a crashed subcommand is counted, the sequence goes on
                code = f"{type(err).__name__}: {err}"
            stages[command] = time.perf_counter() - t0
            problem = f"exit {code}" if code != 0 else self._check(command)
            if problem:
                failures.append(f"{command}: {problem}")
            elif command == "build":
                gpws = self.config["directions"]
        return Outcome(stages, gpws, len(self.commands), failures)

    def _check(self, command: str) -> str | None:
        data = {}
        for name in self.ARTIFACTS[command]:
            with open(self.out / name, "rb") as handle:
                data[name] = handle.read()
            if self.reference.setdefault(name, data[name]) != data[name]:
                return f"{name} differs byte for byte from the first repetition"
        report = json.loads(data[self.ARTIFACTS[command][0]])
        if command == "build":
            if len(report) != self.config["directions"]:
                return f"{len(report)} functions for {self.config['directions']} directions"
            worst = max(record["residual_norm"] for record in report)
            if not worst <= CERTIFICATE_TOL:
                return f"certificate {worst:.3e} > {CERTIFICATE_TOL:.0e}"
        elif command == "rank":
            need = full_rank(self.dim, self.degree)
            if report["gpw_rank"] < need:
                return f"rank {report['gpw_rank']} < {need}"
        elif not report["passed"]:
            return "report did not pass"
        return None

    def final_check(self) -> tuple[int, list[str]]:
        return 0, []


def _records(dim: int, coeffs: dict) -> list[dict]:
    return GradedPoly(dim, coeffs).to_records()


class Convected3d(CliWorkload):
    """3D convected operator: rho = 1 + 0.1 r.X (r uniform on [-1, 1]^3), constant
    Mach jet uniform on [-0.25, 0.25]^3, kappa = 3, 49 sphere directions."""

    name = "convected-3d"
    commands = ("build", "verify", "rank")

    def make_config(self, rng, size, seed):
        degree = 6 if size == "full" else 3
        rho = {(0, 0, 0): 1.0}
        for axis, value in enumerate(rng.uniform(-1.0, 1.0, 3)):
            rho[tuple(int(i == axis) for i in range(3))] = 0.1 * value
        mach = [_records(3, {(0, 0, 0): value}) for value in rng.uniform(-0.25, 0.25, 3)]
        return {
            "schema": cli.SCHEMA,
            "dimension": 3,
            "degree": degree,
            "center": [0.0, 0.0, 0.0],
            "directions": full_rank(3, degree),
            "seed": seed,
            "operator": {"type": "convected", "rho": _records(3, rho), "mach": mach, "kappa": 3.0},
        }


class Converge2d(CliWorkload):
    """2D manufactured Helmholtz phase i k d.X + dense random layers 2..3 (as in the
    acceptance suite), 2p+1 circle directions, radii 0.4, 0.2, 0.1, 0.05."""

    name = "converge-2d"
    commands = ("build", "verify", "converge")

    def make_config(self, rng, size, seed):
        degree = 6 if size == "full" else 3
        angle = rng.uniform(0.0, 2.0 * math.pi)
        wavenumber = rng.uniform(1.5, 2.5)
        phase = {
            (1, 0): 1j * wavenumber * math.cos(angle),
            (0, 1): 1j * wavenumber * math.sin(angle),
        }
        for index in monomials_up_to(2, 3)[3:]:
            re, im = rng.uniform(-0.3, 0.3, 2)
            phase[index] = complex(re, im)
        return {
            "schema": cli.SCHEMA,
            "dimension": 2,
            "degree": degree,
            "center": [0.1, -0.2],
            "directions": full_rank(2, degree),
            "h_values": [0.4, 0.2, 0.1, 0.05],
            "seed": seed,
            "operator": {
                "type": "helmholtz",
                "preset": "manufactured",
                "phase": _records(2, phase),
            },
        }


WORKLOADS = {cls.name: cls for cls in (MeshHelmholtz, Convected3d, Converge2d)}
