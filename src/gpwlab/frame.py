"""Graded operator splits and the layered construction of preimages.

An :class:`OperatorSplit` packages everything needed to solve T(x) = y for
a (possibly nonlinear) operator T acting between graded polynomial spaces:
a linear layer-respecting principal part, the nonlinear remainder, the
target polynomial, a per-layer solver that inverts the principal part on
the solvable block, and the free monomials of each layer.  Two independent
construction routes are provided: :func:`preimage` walks the layers from
the bottom, and :func:`right_inverse` sweeps the finite fixed-point form
of the same equations (finite because the remainder composed with the
solvers strictly raises the lowest occupied layer).  :func:`verify_split`
checks all structural hypotheses on random samples.  All random
polynomials come from one drawer, one block of seeded uniforms cut into
one stack per degree span; :func:`random_poly` and
:func:`random_homogeneous` are its one-row calls.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Sequence

import numpy as np

from .polycore import (
    GradedPoly,
    HomogeneousPoly,
    MultiIndex,
    space_dimension,
)


class SplitContractError(ValueError):
    """Raised when inputs violate an operator split's structural contract."""


@dataclass(frozen=True)
class OperatorSplit:
    """Split T = principal + remainder over graded layers.

    ``layer_count`` is the number of target layers (degrees 0..layer_count-1
    of the image space); source layer n holds homogeneous polynomials of
    degree n + order.  Degrees below ``order`` form the pass-through block
    that the principal part annihilates.  ``solve_layer(n, b)`` must return
    a degree n + order polynomial, supported on the complement of
    ``free_monomials(n)``, whose principal image is b.
    """

    dim: int
    order: int
    layer_count: int
    principal: Callable[[GradedPoly], GradedPoly]
    remainder: Callable[[GradedPoly], GradedPoly]
    rhs: GradedPoly
    solve_layer: Callable[[int, HomogeneousPoly], HomogeneousPoly]
    free_monomials: Callable[[int], tuple[MultiIndex, ...]]
    dispersion_wavenumber: Callable[[Sequence[float]], complex] | None = None
    label: str = ""

    @property
    def last_layer(self) -> int:
        return self.layer_count - 1

    @property
    def source_degree(self) -> int:
        """Largest polynomial degree the construction produces."""
        return self.order + self.layer_count - 1

    def apply(self, poly: GradedPoly) -> GradedPoly:
        return self.principal(poly) + self.remainder(poly)

    def residual(self, poly: GradedPoly) -> GradedPoly:
        return self.apply(poly) - self.rhs

    def solve_all(self, target: GradedPoly) -> GradedPoly:
        """Apply the layer solvers to every layer of a target polynomial."""
        if target.degree > self.last_layer:
            raise SplitContractError(
                f"target degree {target.degree} exceeds top layer {self.last_layer}"
            )
        out = GradedPoly.zero(self.dim)
        for n in range(self.layer_count):
            piece = target.layer(n)
            if piece:
                out = out + self.solve_layer(n, piece).as_graded()
        return out

    def free_parameter_count(self) -> int:
        """Pass-through block dimension plus the free monomials of every layer."""
        count = space_dimension(self.dim, self.order - 1)
        for n in range(self.layer_count):
            count += len(self.free_monomials(n))
        return count


@dataclass(frozen=True)
class FreeParameters:
    """Free data of a preimage: the pass-through part and per-layer free components.

    ``base`` has degree < split.order and is reproduced verbatim on the low
    layers of the output; ``free[n]`` is supported on the free monomials of
    layer n and is reproduced verbatim on those coordinates.
    """

    base: GradedPoly
    free: tuple[HomogeneousPoly, ...]

    @classmethod
    def zeros(cls, split: OperatorSplit) -> "FreeParameters":
        return cls(
            GradedPoly.zero(split.dim),
            tuple(
                HomogeneousPoly.zero(split.dim, n + split.order)
                for n in range(split.layer_count)
            ),
        )

    def validate(self, split: OperatorSplit) -> None:
        if self.base.dim != split.dim:
            raise SplitContractError("base dimension mismatch")
        if self.base.degree > split.order - 1:
            raise SplitContractError(
                f"base degree {self.base.degree} exceeds {split.order - 1}"
            )
        if len(self.free) != split.layer_count:
            raise SplitContractError(
                f"expected {split.layer_count} free components, got {len(self.free)}"
            )
        for n, component in enumerate(self.free):
            if component.dim != split.dim or component.degree != n + split.order:
                raise SplitContractError(f"free component {n} has wrong degree")
            if not component:
                continue
            stray = set(component.coeffs).difference(split.free_monomials(n))
            if stray:
                raise SplitContractError(
                    f"free component {n} uses non-free monomials {sorted(stray)}"
                )


def preimage(
    split: OperatorSplit,
    target: GradedPoly,
    params: FreeParameters | None = None,
) -> GradedPoly:
    """Construct x with split.apply(x) == target, layer by layer.

    The base passes through unchanged.  For each layer, the free component
    is injected and the layer solver supplies the solvable complement of
    whatever the target still requires once the remainder of the lower
    layers is accounted for.  The remainder only probes layers already
    fixed, which is exactly the prefix-locality hypothesis checked by
    :func:`verify_split`.  A stacked base (see :mod:`gpwlab.polycore`)
    gives the stack of preimages, one per row, in one pass.
    """
    if params is None:
        params = FreeParameters.zeros(split)
    params.validate(split)
    if target.dim != split.dim:
        raise SplitContractError("target dimension mismatch")
    if target.degree > split.last_layer:
        raise SplitContractError(
            f"target degree {target.degree} exceeds top layer {split.last_layer}"
        )
    out = params.base
    for n in range(split.layer_count):
        component = params.free[n]
        need = target.layer(n) - split.remainder(out).layer(n)
        if component:
            need = need - split.principal(component.as_graded()).layer(n)
        piece = component + split.solve_layer(n, need)
        out = out + piece.as_graded()
    return out


def right_inverse(split: OperatorSplit, target: GradedPoly) -> GradedPoly:
    """Right inverse by the finite sweep x <- solve_all(target - remainder(x)).

    Starting from zero, each sweep pins one more layer of the fixed point:
    layer n of the remainder only sees layers below n, so layer_count
    sweeps reach the fixed point exactly and further sweeps change
    nothing.  When the remainder is linear, unrolling the sweeps gives
    the familiar finite alternating series of solve_all and -remainder
    (finite because remainder-after-solvers is nilpotent); for a
    nonlinear remainder the sweep form is the one that stays a right
    inverse, since expanding the series would drop the cross terms.
    """
    if target.dim != split.dim:
        raise SplitContractError("target dimension mismatch")
    if target.degree > split.last_layer:
        raise SplitContractError(
            f"target degree {target.degree} exceeds top layer {split.last_layer}"
        )
    out = GradedPoly.zero(split.dim)
    for _ in range(split.layer_count):
        out = split.solve_all(target - split.remainder(out))
    return out


# -- hypothesis verification -------------------------------------------


@dataclass(frozen=True)
class SplitCheck:
    """One hypothesis check; ``trial`` and ``layer`` locate its worst violation.

    ``layer`` is None for a check that does not run layer by layer, and both
    are None when no violation is above zero.  They are diagnostics only:
    :meth:`to_dict` leaves them out.
    """

    check: str
    trials: int
    max_violation: float
    tolerance: float
    passed: bool
    trial: int | None = None
    layer: int | None = None

    def to_dict(self) -> dict:
        return {
            "check": self.check,
            "trials": self.trials,
            "max_violation": self.max_violation,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }


@dataclass(frozen=True)
class SplitReport:
    label: str
    seed: int
    trials: int
    checks: tuple[SplitCheck, ...]

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def to_dict(self) -> dict:
        return {
            "label": self.label,
            "seed": self.seed,
            "trials": self.trials,
            "passed": self.passed,
            "checks": [check.to_dict() for check in self.checks],
        }


def random_poly(
    rng: np.random.Generator, dim: int, max_degree: int, min_degree: int = 0
) -> GradedPoly:
    """Dense random polynomial, coefficients uniform on the complex square [-1,1]^2."""
    return _draw(rng, 1, dim, [(min_degree, max_degree)])[0].rows()[0]


def random_homogeneous(rng: np.random.Generator, dim: int, degree: int) -> HomogeneousPoly:
    return _draw(rng, 1, dim, [(degree, degree)])[0].rows()[0].layer(degree)


def _draw(
    rng: np.random.Generator, rows: int, dim: int, spans: Sequence[tuple[int, int]]
) -> list[GradedPoly]:
    """One stack of ``rows`` random polynomials per ``(low, high)`` degree span.

    Layers low..high get coefficients uniform on the complex square
    [-1,1]^2, real and imaginary parts in turn; layers below low are zero.
    One block of uniforms fills row after row, span after span within a
    row: what drawing each span of each row in turn would give.
    """
    bounds = [(space_dimension(dim, low - 1), space_dimension(dim, high)) for low, high in spans]
    widths = [max(size - start, 0) for start, size in bounds]
    parts = rng.uniform(-1.0, 1.0, (rows, sum(widths), 2))
    blocks = np.split(parts[..., 0] + 1j * parts[..., 1], np.cumsum(widths)[:-1], axis=1)
    out = []
    for (start, size), block in zip(bounds, blocks):
        vec = np.zeros((rows, size), dtype=complex)
        vec[:, start:] = block
        out.append(GradedPoly.from_vector(dim, vec))
    return out


def _rel(deviation: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """Per-row deviation relative to max(scale, 1)."""
    return deviation / np.maximum(scale, 1.0)


def verify_split(
    split: OperatorSplit,
    trials: int = 50,
    seed: int = 0,
    tolerance: float = 1e-12,
    nilpotency_tolerance: float = 1e-13,
) -> SplitReport:
    """Check the structural hypotheses of a split on seeded random samples.

    Covers: linearity and layer action of the principal part, the
    right-inverse identity of the layer solvers, annihilation of the
    low-degree pass-through block, the layer shift and top-layer
    annihilation of the remainder, nilpotency of remainder-after-solvers,
    and prefix locality of the remainder's layer projections.  All trials'
    inputs are one :func:`_draw` of one stack per input, one row per
    trial, in the stream order of drawing them trial by trial.  Each check
    runs once (once per layer) on the stacks, and each row gives the
    violation its trial would give alone, bit for bit.  The
    worst row of each check is reported, with its trial and layer (the
    first of equal ones, layer before trial); a NaN violation is the worst
    and fails the check.  Failures are recorded in the report, never raised.
    """
    if trials < 1:
        raise ValueError("need at least one trial")
    order, layers, top = split.order, split.layer_count, split.source_degree
    source = [(n + order, n + order) for n in range(layers)]
    groups = (  # the degree spans of each input, in stream order
        [(0, top)], [(0, top)], [(0, 0)],  # p, q, alpha
        [span for n in range(layers) for span in (source[n], (n, n))],  # h, b
        [(0, order - 1)],  # low
        [(n + order, top) for n in range(layers - 1)],  # shift
        [(top, top), (0, split.last_layer)] if layers else [],  # tail
        [(0, order - 1)], source,  # base, pieces
    )
    drawn = iter(_draw(np.random.default_rng(seed), trials, split.dim, sum(groups, [])))
    (p,), (q,), (alpha,), hb, (low,), shift, tail, (base,), pieces = (
        [next(drawn) for _ in group] for group in groups
    )
    alpha, h, b = alpha.vec[:, 0], hb[0::2], hb[1::2]
    worst = dict.fromkeys(
        (
            "principal_linear",
            "principal_layer_map",
            "principal_right_inverse",
            "principal_kills_low_degree",
            "remainder_degree_shift",
            "remainder_top_zero",
            "remainder_nilpotent",
            "remainder_prefix_local",
        ),
        (0.0, None, None),
    )

    def record(check: str, rows: np.ndarray, layer: int | None = None) -> None:
        rows = np.atleast_1d(rows)  # a single polynomial stands for every trial
        trial = int(np.argmax(rows))  # the first NaN, else the first largest
        value, known = rows[trial], worst[check][0]
        if value > known or (np.isnan(value) and not np.isnan(known)):
            worst[check] = (value, trial, layer)

    # linearity of the principal part
    lhs = split.principal(p + q.scaled(alpha))
    rhs = split.principal(p) + split.principal(q).scaled(alpha)
    record(
        "principal_linear",
        _rel((lhs - rhs).row_max_abs(), np.maximum(lhs.row_max_abs(), rhs.row_max_abs())),
    )

    # layer action, right-inverse identity
    for n in range(split.layer_count):
        image = split.principal(h[n])
        off_layer = image - image.layer(n).as_graded()
        record("principal_layer_map", _rel(off_layer.row_max_abs(), image.row_max_abs()), n)
        target = b[n].layer(n)
        back = split.principal(split.solve_layer(n, target).as_graded()).layer(n)
        record(
            "principal_right_inverse",
            _rel((back - target).row_max_abs(), target.row_max_abs()),
            n,
        )

    # annihilation of the pass-through block
    record(
        "principal_kills_low_degree",
        _rel(split.principal(low).row_max_abs(), low.row_max_abs()),
    )

    # remainder layer shift: input on source layers >= n maps to image layers > n
    for n, poly in enumerate(shift):
        image = split.remainder(poly)
        scale = np.maximum(image.row_max_abs(), poly.row_max_abs())
        record("remainder_degree_shift", _rel(image.truncate(n).row_max_abs(), scale), n)
    if tail:
        top_input, y = tail
        record(
            "remainder_top_zero",
            _rel(split.remainder(top_input).row_max_abs(), top_input.row_max_abs()),
        )

        # nilpotency of remainder-after-solvers, on unit-normalized input
        scale = y.row_max_abs()
        y = y.scaled(np.divide(1.0, scale, out=np.ones_like(scale), where=scale > 0))
        for _ in range(split.layer_count):
            y = split.remainder(split.solve_all(y.truncate(split.last_layer)))
        record("remainder_nilpotent", y.row_max_abs())

    # prefix locality of the remainder's layer projections
    full = base
    for piece in pieces:
        full = full + piece
    image_full = split.remainder(full)
    scale = np.maximum(image_full.row_max_abs(), full.row_max_abs())
    prefix = base
    for n, piece in enumerate(pieces):
        gap = image_full.layer(n) - split.remainder(prefix).layer(n)
        record("remainder_prefix_local", _rel(gap.row_max_abs(), scale), n)
        prefix = prefix + piece

    checks = []
    for name, (violation, trial, layer) in worst.items():
        violation = float(violation)
        tol = nilpotency_tolerance if name == "remainder_nilpotent" else tolerance
        checks.append(SplitCheck(name, trials, violation, tol, violation <= tol, trial, layer))
    return SplitReport(split.label, seed, trials, tuple(checks))


def corrupted(split: OperatorSplit) -> OperatorSplit:
    """Split with the remainder replaced by the principal part.

    Negative control for :func:`verify_split`: the replacement maps each
    source layer to the image layer of the same index instead of raising
    it, so the degree-shift check must fail.
    """
    return replace(split, remainder=split.principal)
