"""Direction families and construction of generalized plane waves.

A generalized plane wave is exp(P(x - center)) with a polynomial phase P
whose linear part mimics a plane wave and whose higher layers are the
corrections produced by the layered construction.  A family is built as
one stack of phases, one row per direction, through a single layered
construction and a single certificate evaluation; a single function is a
family of one.  Each built function carries the certificate that its phase
satisfies the truncated operator equation.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .frame import FreeParameters, OperatorSplit, preimage
from .polycore import GradedPoly, monomials_up_to, records_stack
from .serialize import integer, json_text, real

UNIT_NORM_TOL = 1e-14

GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


class CertificateError(RuntimeError):
    """Raised when a built phase fails its truncated-operator certificate."""


def unit_circle_directions(count: int, offset: float = 0.0) -> list[tuple[float, float]]:
    """Equispaced unit vectors at angles 2*pi*(l + offset)/count."""
    if count < 1:
        raise ValueError("need at least one direction")
    angles = [2.0 * math.pi * (step + offset) / count for step in range(count)]
    return [(math.cos(angle), math.sin(angle)) for angle in angles]


def unit_sphere_directions(count: int) -> list[tuple[float, float, float]]:
    """Deterministic quasi-uniform unit vectors (golden-angle spiral, poles included)."""
    if count < 1:
        raise ValueError("need at least one direction")
    if count == 1:
        return [(0.0, 0.0, 1.0)]
    points = []
    for step in range(count):
        z = 1.0 - 2.0 * step / (count - 1)
        radius = math.sqrt(max(0.0, 1.0 - z * z))
        azimuth = GOLDEN_ANGLE * step
        vec = (radius * math.cos(azimuth), radius * math.sin(azimuth), z)
        norm = math.sqrt(sum(c * c for c in vec))
        points.append(tuple(c / norm for c in vec))
    return points


def directions(dim: int, count: int, offset: float = 0.0) -> list[tuple[float, ...]]:
    """The circle's directions turned by ``offset`` steps, or the sphere's spiral."""
    if dim == 2:
        return unit_circle_directions(count, offset)
    if dim == 3:
        return unit_sphere_directions(count)
    raise ValueError(f"no direction family for dimension {dim}")


def _check_unit(direction: Sequence[complex]) -> tuple[complex, ...]:
    """Validate a propagation direction; complex entries model evanescent waves.

    The unit constraint is the bilinear one, sum(d_i^2) = 1: it reduces to
    the Euclidean norm for real vectors and is what makes a linear phase
    close the lowest-layer equation.
    """
    direction = tuple(complex(c) for c in direction)
    if all(c.imag == 0.0 for c in direction):
        direction = tuple(c.real for c in direction)
    norm = cmath.sqrt(sum(c * c for c in direction))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"direction norm {norm!r} is not 1")
    return direction


def linear_phase(dim: int, wavenumber: complex, direction: Sequence[complex]) -> GradedPoly:
    """i * wavenumber * (direction . X), the classical plane-wave phase, of degree cap 1."""
    ik = 1j * complex(wavenumber)
    return GradedPoly.linear(dim, [ik * c if c != 0.0 else 0.0 for c in direction])


@dataclass(frozen=True)
class ExpPhase:
    """x -> exp(phase(x - center)), at one point or, with ``values``, at many."""

    center: tuple[float, ...]
    phase: GradedPoly

    def __call__(self, point: Sequence[float]) -> complex:
        offset = tuple(float(a) - b for a, b in zip(point, self.center))
        return cmath.exp(self.phase.evaluate(offset))

    def values(self, points: Sequence[Sequence[float]]) -> np.ndarray:
        """Values at the rows of an (n, dim) array of global points."""
        offsets = np.asarray(points, dtype=float) - self.center
        return np.exp(self.phase.evaluate_many(offsets))


@dataclass(frozen=True)
class GpwFunction(ExpPhase):
    """exp(phase(x - center)) with phase(0) = 0, so the value at the center is 1."""

    degree: int
    direction: tuple[complex, ...]  # real for propagating, complex for evanescent
    operator: str
    residual_norm: float

    def __call__(self, point: Sequence[float]) -> complex:
        if len(point) != self.phase.dim:
            raise ValueError("dimension mismatch")
        return super().__call__(point)


def _certificates(split: OperatorSplit, phase: GradedPoly) -> np.ndarray:
    """Certificate of each row of a phase stack (a 0-d array for one phase).

    Each row is the sup-norm of its truncated-operator residual over
    max(1, |rhs|, |principal image|, |remainder image|), all sup-norms.
    """
    principal = split.principal(phase)
    remainder = split.remainder(phase)
    residual = (principal + remainder) - split.rhs
    scale = np.maximum(
        max(1.0, split.rhs.max_abs()), np.maximum(principal.row_max_abs(), remainder.row_max_abs())
    )
    return residual.row_max_abs() / scale


def certificate_norm(split: OperatorSplit, phase: GradedPoly) -> float:
    """Sup-norm of the truncated-operator residual, relative to the equation scale."""
    return float(_certificates(split, phase))


def build_gpw(
    split: OperatorSplit,
    direction: Sequence[complex],
    center: Sequence[float] | None = None,
    tol: float = 1e-11,
) -> GpwFunction:
    """Build the generalized plane wave for one propagation direction: a family of one."""
    return build_family(split, [direction], center=center, tol=tol)[0]


def build_family(
    split: OperatorSplit,
    direction_set: Iterable[Sequence[complex]],
    center: Sequence[float] | None = None,
    tol: float = 1e-11,
) -> list[GpwFunction]:
    """Build the generalized plane waves of a direction family, in the given order.

    The linear phase coefficients of each direction are i*k*direction with
    k from the split's dispersion data, the constant term is zero so each
    function is 1 at the center, and all remaining free components are
    zero.  The linear phases are stacked and solved for in one layered
    construction; every row is the phase its direction gets when built
    alone, bit for bit.  The residual certificates are recomputed after the
    construction; the first direction whose residual exceeds ``tol``, or is
    NaN, aborts with a diagnostic.
    """
    directions = [_check_unit(d) for d in direction_set]
    if any(len(d) != split.dim for d in directions):
        raise ValueError("direction dimension mismatch")
    if split.dispersion_wavenumber is None:
        raise ValueError("split carries no dispersion data for basis initialization")
    if not directions:
        return []
    center = tuple(float(c) for c in center) if center is not None else (0.0,) * split.dim
    params = FreeParameters(
        base=GradedPoly.stack([
            linear_phase(split.dim, split.dispersion_wavenumber(d), d) for d in directions
        ]),
        free=FreeParameters.zeros(split).free,
    )
    phases = preimage(split, split.rhs, params)
    residuals = _certificates(split, phases).tolist()
    for direction, residual in zip(directions, residuals):
        if not residual <= tol:
            raise CertificateError(
                f"{split.label} phase for direction {direction} has residual "
                f"{residual:.3e} > {tol:.1e}"
            )
    return [
        GpwFunction(
            center=center,
            phase=phase,
            degree=split.source_degree,
            direction=direction,
            operator=split.label,
            residual_norm=residual,
        )
        for phase, direction, residual in zip(phases.rows(), directions, residuals)
    ]


def plane_wave(
    dim: int,
    wavenumber: complex,
    direction: Sequence[complex],
    degree: int,
    center: Sequence[float] | None = None,
) -> GpwFunction:
    """Classical plane wave exp(i*k*direction.(x - center)) tagged with a degree."""
    direction = _check_unit(direction)
    center = tuple(float(c) for c in center) if center is not None else (0.0,) * dim
    return GpwFunction(
        center=center,
        phase=linear_phase(dim, wavenumber, direction),
        degree=degree,
        direction=direction,
        operator="plane_wave",
        residual_norm=0.0,
    )


def plane_wave_family(
    split: OperatorSplit,
    direction_set: Iterable[Sequence[float]],
    center: Sequence[float] | None = None,
) -> list[GpwFunction]:
    """Reference plane waves at the split's center wavenumber, same direction set."""
    if split.dispersion_wavenumber is None:
        raise ValueError("split carries no dispersion data")
    return [
        plane_wave(
            split.dim,
            split.dispersion_wavenumber(_check_unit(d)),
            d,
            split.source_degree,
            center=center,
        )
        for d in direction_set
    ]


def _direction_payload(direction: Sequence[complex]) -> list:
    """Real components as plain numbers, complex ones as [re, im] pairs."""
    return [
        c.real if isinstance(c, complex) and c.imag == 0.0 else
        ([c.real, c.imag] if isinstance(c, complex) else float(c))
        for c in direction
    ]


def _direction_from_payload(payload: Sequence) -> tuple[complex, ...]:
    return tuple(
        complex(real(c[0], "direction"), real(c[1], "direction"))
        if isinstance(c, (list, tuple)) and len(c) == 2
        else real(c, "direction")
        for c in payload
    )


def _record(phi: GpwFunction, phase: list) -> dict:
    return {
        "direction": _direction_payload(phi.direction),
        "x0": list(phi.center),
        "p": phi.degree,
        "operator": phi.operator,
        "phase": phase,
        "residual_norm": phi.residual_norm,
    }


def family_to_records(family: Iterable[GpwFunction]) -> list[dict]:
    """Basis file payload: one record per function, graded-lex phase coefficients."""
    return [_record(phi, phi.phase.to_records()) for phi in family]


@lru_cache(maxsize=None)
def _term_templates(dim: int, cap: int) -> tuple[str, ...]:
    """Basis-file text of the phase record of each graded-lex monomial, ``%s`` for re and im.

    Each is the encoder's own ``indent=2`` text of a sample record, indented
    to the depth of a phase term (three levels) after its first line.
    """
    templates = []
    for index in monomials_up_to(dim, cap):
        text = json.dumps({"exponents": list(index), "re": 0.5, "im": 0.25}, indent=2)
        text = text.replace('"re": 0.5,', '"re": %s,').replace('"im": 0.25', '"im": %s')
        templates.append(text.replace("\n", "\n      "))
    return tuple(templates)


def family_text(family: Sequence[GpwFunction]) -> str:
    """``json_text(family_to_records(family))``, byte for byte, for functions of one dimension.

    The per-function headers go through :func:`json_text` with an empty
    phase.  The phase terms come from one ``np.nonzero`` of the family's
    phase stack, each filled into its monomial's template with
    ``float.__repr__``, the encoder's own spelling.  A non-finite
    coefficient raises the encoder's ``ValueError``.
    """
    if not family:
        return json_text([])
    phases = GradedPoly.stack([phi.phase for phi in family])
    if not np.isfinite(phases.vec).all():
        # the reference raises for the first non-finite number it meets
        return json_text(family_to_records(family))
    heads = json_text([_record(phi, []) for phi in family]).split('"phase": []')
    rows, cols = np.nonzero(phases.vec)
    values = phases.vec[rows, cols]
    templates = _term_templates(phases.dim, phases.cap)
    re = map(float.__repr__, values.real.tolist())
    im = map(float.__repr__, values.imag.tolist())
    terms = [templates[col] % (r, i) for col, r, i in zip(cols.tolist(), re, im)]
    out = [heads[0]]
    start = 0
    for end, head in zip(np.cumsum(np.bincount(rows, minlength=len(family))).tolist(), heads[1:]):
        body = ",\n      ".join(terms[start:end])
        out.append(f'"phase": [\n      {body}\n    ]' if body else '"phase": []')
        out.append(head)
        start = end
    return "".join(out)


def family_from_records(records: Iterable[Mapping]) -> list[GpwFunction]:
    """Inverse of :func:`family_to_records`, signed zeros included."""
    return _read_family(records)[0]


def _read_family(
    records: Iterable[Mapping], bound: int | None = None
) -> tuple[list[GpwFunction], GradedPoly]:
    """The functions of basis-file records and their phases as one stack, read in one call.

    Each function's phase is its row of the stack at its own cap, which is
    what reading its records alone gives.  A phase record above ``bound``
    is refused before any storage is sized.
    """
    records = list(records)
    centers = [tuple(real(c, "x0") for c in record["x0"]) for record in records]
    dim = len(centers[0]) if centers else 1
    if any(len(center) != dim for center in centers):
        raise ValueError("basis records mix dimensions")
    phases, caps = records_stack(dim, [record["phase"] for record in records], bound)
    family = [
        GpwFunction(
            center=center,
            phase=phase.truncate(cap),
            degree=integer(record["p"], "p"),
            direction=_direction_from_payload(record["direction"]),
            operator=str(record.get("operator", "")),
            residual_norm=real(record["residual_norm"], "residual_norm"),
        )
        for record, center, phase, cap in zip(records, centers, phases.rows(), caps.tolist())
    ]
    return family, phases
