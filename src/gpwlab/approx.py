"""Rank, best-approximation, and residual-order studies for wave families.

These routines generate the package's quantitative evidence: the rank of
Taylor-truncation matrices (the local approximation capacity of a
family), least-squares best-approximation errors against manufactured
solutions with their fitted convergence slopes, and the decay order of
the true operator residual on shrinking spheres.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Mapping, Sequence

import numpy as np

from .basis import ExpPhase, GpwFunction, directions
from .operators import CoefficientJet, helmholtz_image
from .polycore import GradedPoly, evaluate_each, space_dimension


# -- Taylor truncations and ranks -----------------------------------------


def taylor_truncation(
    functions: GpwFunction | Sequence[GpwFunction], bound: int | None = None
) -> GradedPoly:
    """Degree-bound Taylor polynomial of exp(phase) at the center.

    A sequence of functions gives one stack row per function, the bound
    defaulting to their largest degree; the series runs once on the stack
    of phases, and each row is the polynomial its function gets alone: a
    constant phase gives a constant, so its row keeps +0 above degree 0
    rather than zeros times its scale factor, which may be -0.  A single
    function is a stack of one and gives a single polynomial.
    Exact: with the constant term factored out, the phase has positive
    valuation, so powers beyond the bound cannot contribute below it.
    For the same reason the power that step m multiplies, the (m-1)-th, is
    zero below degree m - 1, so step m multiplies it by the phase cut to
    degree ``bound - m + 1``: the pairs the cut drops all multiply an exact
    zero, and the bits are those of the full product.  A phase with an
    infinite or NaN coefficient is the exception: zero times such a
    coefficient is NaN, so a coefficient that the full product would make
    NaN may come out finite or infinite here.
    """
    family = [functions] if isinstance(functions, GpwFunction) else list(functions)
    if bound is None:
        bound = max(phi.degree for phi in family)
    phases = GradedPoly.stack([phi.phase for phi in family])
    dim, rows = phases.dim, len(family)
    constants = phases.vec[:, 0] if phases.cap >= 0 else np.zeros(rows, dtype=complex)
    constants = np.where(constants == 0, 0j, constants)  # a signed zero is no constant term
    reduced = phases - GradedPoly.from_vector(dim, constants[:, None])
    term = GradedPoly.from_vector(dim, np.ones((rows, 1)))
    total = term
    for m in range(1, bound + 1):
        term = term.mul_truncated(reduced.truncate(bound - m + 1), bound).scaled(1.0 / m)
        total = total + term
    vec = total.vec * np.array([cmath.exp(c) for c in constants.tolist()])[:, None]
    vec[np.array([phi.phase.cap <= 0 for phi in family]), 1:] = 0
    total = GradedPoly.from_vector(dim, vec)
    return total.rows()[0] if isinstance(functions, GpwFunction) else total


def taylor_matrix(family: Sequence[GpwFunction], bound: int | None = None) -> np.ndarray:
    """Rows: family members; columns: graded-lex monomial coefficients of T_bound."""
    if not family:
        raise ValueError("family is empty")
    if bound is None:
        bound = max(phi.degree for phi in family)
    coefficients = taylor_truncation(family, bound).vec
    matrix = np.zeros((len(family), space_dimension(family[0].phase.dim, bound)), dtype=complex)
    matrix[:, : coefficients.shape[-1]] = coefficients
    return matrix


def taylor_rank(
    family: Sequence[GpwFunction], bound: int | None = None, tol: float = 1e-10
) -> tuple[int, np.ndarray]:
    """Numerical rank of the Taylor-truncation matrix: singular values above tol * largest."""
    matrix = taylor_matrix(family, bound)
    singulars = np.linalg.svd(matrix, compute_uv=False)
    if singulars.size == 0 or singulars[0] == 0:
        return 0, singulars
    return int(np.sum(singulars > tol * singulars[0])), singulars


@dataclass(frozen=True)
class RankReport:
    degree: int
    direction_count: int
    plane_rank: int
    gpw_rank: int
    plane_singulars: tuple[float, ...]
    gpw_singulars: tuple[float, ...]

    @property
    def equal(self) -> bool:
        return self.plane_rank == self.gpw_rank

    def to_dict(self) -> dict:
        return {
            "degree": self.degree,
            "direction_count": self.direction_count,
            "plane_rank": self.plane_rank,
            "gpw_rank": self.gpw_rank,
            "equal": self.equal,
            "plane_singulars": list(self.plane_singulars),
            "gpw_singulars": list(self.gpw_singulars),
        }


def rank_comparison(
    gpw_family: Sequence[GpwFunction],
    plane_family: Sequence[GpwFunction],
    tol: float = 1e-10,
) -> RankReport:
    """Ranks of a generalized family and its plane-wave reference on one direction set."""
    if len(gpw_family) != len(plane_family):
        raise ValueError("families must share the direction set")
    bound = max(phi.degree for phi in gpw_family)
    gpw_rank, gpw_sv = taylor_rank(gpw_family, bound, tol)
    plane_rank, plane_sv = taylor_rank(plane_family, bound, tol)
    return RankReport(
        degree=bound,
        direction_count=len(gpw_family),
        plane_rank=plane_rank,
        gpw_rank=gpw_rank,
        plane_singulars=tuple(float(s) for s in plane_sv),
        gpw_singulars=tuple(float(s) for s in gpw_sv),
    )


# -- manufactured problems -------------------------------------------------


@dataclass(frozen=True)
class ManufacturedProblem:
    """Helmholtz problem with the exact solution exp(g(x - center)).

    The wavenumber square is forced to -(Lap g + |grad g|^2), so the
    solution satisfies the operator identically wherever it is smooth.
    """

    center: tuple[float, ...]
    phase: GradedPoly
    kappa_sq: GradedPoly  # centered coordinates

    @property
    def solution(self) -> ExpPhase:
        return ExpPhase(self.center, self.phase)

    @property
    def jet(self) -> CoefficientJet:
        return CoefficientJet(self.kappa_sq)


def manufactured_helmholtz(
    g: GradedPoly, center: Sequence[float] | None = None
) -> ManufacturedProblem:
    center = tuple(center) if center is not None else (0.0,) * g.dim
    return ManufacturedProblem(center, g, -helmholtz_image(g, GradedPoly.zero(g.dim)))


# -- sampling ---------------------------------------------------------------


@lru_cache(maxsize=64)
def _unit_directions(dim: int, count: int, offset: float) -> np.ndarray:
    """Read-only (count, dim) array of :func:`directions`, built once per argument triple."""
    array = np.array(directions(dim, count, offset))
    array.setflags(write=False)
    return array


def sphere_points(
    dim: int, center: Sequence[float], radius: float, count: int, offset: float = 0.0
) -> np.ndarray:
    """(count, dim) array of points at ``radius`` about ``center``, along :func:`directions`."""
    return np.asarray(center, dtype=float) + radius * _unit_directions(dim, count, offset)


def fit_points(
    dim: int, center: Sequence[float], radius: float, family_size: int
) -> np.ndarray:
    """Surface samples (4x the family size) plus two interior shells and the center."""
    return np.concatenate([
        sphere_points(dim, center, radius, 4 * family_size),
        sphere_points(dim, center, 2.0 * radius / 3.0, 2 * family_size, offset=0.5),
        sphere_points(dim, center, radius / 3.0, family_size, offset=0.25),
        np.array([center], dtype=float),
    ])


def ball_points(
    dim: int, center: Sequence[float], radius: float, family_size: int, shells: int = 10
) -> np.ndarray:
    """Dense closed-ball sample, roughly ten times the fit grid."""
    per_shell = 7 * family_size + 3
    return np.concatenate([np.array([center], dtype=float)] + [
        sphere_points(dim, center, radius * j / shells, per_shell, offset=0.37)
        for j in range(1, shells + 1)
    ])


# -- least-squares fits ------------------------------------------------------


def _sample(
    field: Callable[[Sequence[float]], complex], points: Sequence[Sequence[float]]
) -> np.ndarray:
    """Values of a scalar field at each point; one batch when it has ``values(points)``."""
    values = getattr(field, "values", None)
    if values is not None:
        return np.asarray(values(points), dtype=complex)
    return np.array([field(x) for x in points], dtype=complex)


def _fit_values(
    solution: Callable[[Sequence[float]], complex],
    family: Sequence[GpwFunction],
    points: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The family matrix (rows: points; columns: members) and the solution's values.

    The stacked phases, and the phase of an ``ExpPhase`` solution about the
    family's center, are evaluated from one Vandermonde matrix; any other
    solution is sampled by :func:`_sample`.  The solution's values have the
    bits of its own ``values``, and each column those of
    ``phi.values(points)`` when the phases share a degree cap, as the rows
    of a built family do (a lower cap is padded with zeros, whose longer
    sums may round differently).
    """
    center = family[0].center
    if any(phi.center != center for phi in family):
        raise ValueError("family members must share one center")
    phases = [GradedPoly.stack([phi.phase for phi in family])]
    shared = isinstance(solution, ExpPhase) and solution.center == center
    if shared:
        phases.append(solution.phase)
    offsets = np.asarray(points, dtype=float) - center
    values = [np.exp(v) for v in evaluate_each(phases, offsets)]
    return values[0], values[1] if shared else _sample(solution, points)


@dataclass(frozen=True)
class FitResult:
    error: float
    fit_rank: int
    family_size: int
    degenerate: bool


def family_fit_error(
    solution: Callable[[Sequence[float]], complex],
    family: Sequence[GpwFunction],
    radius: float,
    svd_cutoff: float = 1e-12,
) -> FitResult:
    """Max deviation on the closed ball of a least-squares fit of the family.

    The fit minimizes the discrete l2 misfit on the fit grid with
    truncated-SVD regularization; the reported error is the sup over a
    roughly ten-times denser ball sample, so it upper-bounds the best
    achievable sup-norm error of the family on that ball.  An ``ExpPhase``
    solution about the family's center (``ManufacturedProblem.solution``)
    is evaluated with the family from one Vandermonde matrix per point set,
    with the bits of its own ``values``; any other callable is sampled by
    :func:`_sample`, one batch when it has ``values(points)``.
    """
    if not family:
        raise ValueError("family is empty")
    if radius <= 0:
        raise ValueError("radius must be positive")
    dim = family[0].phase.dim
    center = family[0].center
    grid = fit_points(dim, center, radius, len(family))
    matrix, values = _fit_values(solution, family, grid)
    left, singulars, right_h = np.linalg.svd(matrix, full_matrices=False)
    if singulars.size == 0 or singulars[0] == 0:
        raise ValueError("degenerate sampling: zero fit matrix")
    keep = singulars > svd_cutoff * singulars[0]
    rank = int(np.sum(keep))
    if rank == 0:
        raise ValueError("degenerate sampling: fit matrix has numerical rank 0")
    # einsum sums in a fixed order; OpenBLAS splits this long reduction by thread count
    projection = np.einsum("ij,i->j", left[:, :rank].conj(), values)
    coefficients = right_h[:rank].conj().T @ (projection / singulars[:rank])
    dense = ball_points(dim, center, radius, len(family))
    dense_matrix, dense_values = _fit_values(solution, family, dense)
    error = float(np.max(np.abs(dense_values - dense_matrix @ coefficients)))
    degenerate = rank < min(len(family), len(grid))
    return FitResult(error, rank, len(family), degenerate)


# -- slope studies ------------------------------------------------------------


@dataclass(frozen=True)
class DecayReport:
    """Measured decay of an error quantity over shrinking radii."""

    label: str
    degree: int
    expected_order: float
    entries: tuple[tuple[float, float], ...]
    pair_slopes: tuple[float, ...]
    slope: float
    threshold: float
    exact: bool
    monotone: bool
    metadata: Mapping[str, object] = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.exact or self.slope >= self.threshold

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "degree": self.degree,
            "expected_order": self.expected_order,
            "entries": [[h, e] for h, e in self.entries],
            "pair_slopes": list(self.pair_slopes),
            "slope": None if math.isnan(self.slope) else self.slope,
            "threshold": self.threshold,
            "exact": self.exact,
            "monotone": self.monotone,
            "passed": self.passed,
            "metadata": dict(self.metadata),
        }

    def csv_rows(self) -> list[tuple[float, float, float | None]]:
        rows: list[tuple[float, float, float | None]] = []
        for i, (h, e) in enumerate(self.entries):
            slope = self.pair_slopes[i - 1] if 1 <= i <= len(self.pair_slopes) else None
            rows.append((h, e, slope))
        return rows


def _fit_slopes(
    radii: Sequence[float], errors: Sequence[float], floor: float
) -> tuple[tuple[float, ...], float, bool]:
    """Adjacent and global log-log slopes; exact flag when all errors sit at the floor."""
    if all(e <= floor for e in errors):
        return (), float("nan"), True
    usable = [(h, max(e, floor)) for h, e in zip(radii, errors)]
    pair = tuple(
        math.log(e0 / e1) / math.log(h0 / h1)
        for (h0, e0), (h1, e1) in zip(usable, usable[1:])
    )
    logs_h = [math.log(h) for h, _ in usable]
    logs_e = [math.log(e) for _, e in usable]
    mean_h = sum(logs_h) / len(logs_h)
    mean_e = sum(logs_e) / len(logs_e)
    denom = sum((x - mean_h) ** 2 for x in logs_h)
    slope = sum((x - mean_h) * (y - mean_e) for x, y in zip(logs_h, logs_e)) / denom
    return pair, slope, False


def _check_radii(radii: Sequence[float], minimum: int) -> tuple[float, ...]:
    radii = tuple(float(h) for h in radii)
    if len(radii) < minimum:
        raise ValueError(f"need at least {minimum} radii")
    if any(h <= 0 for h in radii) or any(a <= b for a, b in zip(radii, radii[1:])):
        raise ValueError("radii must be positive and strictly decreasing")
    return radii


def convergence_study(
    solution: Callable[[Sequence[float]], complex],
    family: Sequence[GpwFunction],
    radii: Sequence[float],
    expected_order: float | None = None,
    slack: float = 0.25,
    metadata: Mapping[str, object] | None = None,
) -> DecayReport:
    """Best-approximation errors on shrinking balls with fitted slopes.

    Passes when the global log-log slope reaches the expected order minus
    the slack, or when every error already sits at the rounding floor.
    """
    radii = _check_radii(radii, 4)
    degree = max(phi.degree for phi in family)
    if expected_order is None:
        expected_order = degree + 1
    errors = [family_fit_error(solution, family, h).error for h in radii]
    probe = ball_points(family[0].phase.dim, family[0].center, radii[0], 1)
    scale = max(1.0, float(np.max(np.abs(_sample(solution, probe)))))
    pair, slope, exact = _fit_slopes(radii, errors, 1e-12 * scale)
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    return DecayReport(
        label="best-approximation",
        degree=degree,
        expected_order=float(expected_order),
        entries=tuple(zip(radii, errors)),
        pair_slopes=pair,
        slope=slope,
        threshold=float(expected_order) - slack,
        exact=exact,
        monotone=monotone,
        metadata=dict(metadata or {}),
    )


# -- residual order -----------------------------------------------------------


def helmholtz_residual_exact(
    phi: GpwFunction, kappa_sq: GradedPoly, offsets: np.ndarray
) -> np.ndarray:
    """Helmholtz operator applied to the function at center + each row of (n, dim) offsets.

    Exact when the wavenumber square is polynomial (centered coordinates):
    the image of the exponential is then an exact polynomial times the
    exponential, with no truncation anywhere.
    """
    symbol, phase = evaluate_each([helmholtz_image(phi.phase, kappa_sq), phi.phase], offsets)
    return symbol * np.exp(phase)


def helmholtz_residual_fd(
    phi: GpwFunction,
    kappa_sq_field: Callable[[Sequence[float]], complex],
    points: np.ndarray,
    step: float,
) -> np.ndarray:
    """Central-difference Laplacian plus the coefficient term at each row of (n, dim) points."""
    if step < 1e-6:
        step = 1e-6  # below this the difference quotient is roundoff-dominated
    points = np.asarray(points, dtype=float)
    count, dim = points.shape
    shifts = np.concatenate([np.zeros((1, dim)), step * np.eye(dim), -step * np.eye(dim)])
    stencil = phi.values((points[:, None, :] + shifts).reshape(-1, dim)).reshape(count, -1)
    center, plus, minus = stencil[:, :1], stencil[:, 1 : dim + 1], stencil[:, dim + 1 :]
    laplacian = ((plus - 2.0 * center + minus) / step**2).sum(axis=1)
    return laplacian + _sample(kappa_sq_field, points) * center[:, 0]


def residual_order_study(
    phi: GpwFunction,
    kappa_sq: GradedPoly | Callable[[Sequence[float]], complex],
    radii: Sequence[float],
    expected_order: float | None = None,
    slack: float = 0.25,
    samples: int = 48,
    metadata: Mapping[str, object] | None = None,
) -> DecayReport:
    """Decay of max |L phi| on spheres of shrinking radius around the center.

    ``kappa_sq`` is either the centered polynomial coefficient (exact, by
    :func:`helmholtz_residual_exact`) or a callable field on global
    coordinates (finite differences with step radius * 1e-3).
    """
    radii = _check_radii(radii, 2)
    if expected_order is None:
        expected_order = phi.degree - 1
    errors = []
    for h in radii:
        points = np.asarray(sphere_points(phi.phase.dim, phi.center, h, samples))
        if isinstance(kappa_sq, GradedPoly):
            values = helmholtz_residual_exact(phi, kappa_sq, points - phi.center)
        else:
            values = helmholtz_residual_fd(phi, kappa_sq, points, h * 1e-3)
        errors.append(float(np.max(np.abs(values), initial=0.0)))
    pair, slope, exact = _fit_slopes(radii, errors, 1e-11)
    monotone = all(a >= b for a, b in zip(errors, errors[1:]))
    return DecayReport(
        label="residual-order",
        degree=phi.degree,
        expected_order=float(expected_order),
        entries=tuple(zip(radii, errors)),
        pair_slopes=pair,
        slope=slope,
        threshold=float(expected_order) - slack,
        exact=exact,
        monotone=monotone,
        metadata=dict(metadata or {}),
    )
