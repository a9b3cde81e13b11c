"""Helmholtz and convected-Helmholtz operators as graded splits.

Both operators act on exponentials of polynomial phases.  Dividing the
image by the exponential and truncating the Taylor expansion at the
center yields a polynomial equation for the phase, which splits into the
frozen-coefficient principal part (the layer-respecting linear block)
plus a remainder carrying the gradient products and the variable parts of
the coefficients.  The factories below produce :class:`~gpwlab.frame.OperatorSplit`
values ready for the layered construction.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .frame import OperatorSplit
from .layers import PrincipalPart2, solve_layer, split_layer
from .polycore import GradedPoly, HomogeneousPoly, MultiIndex


def principal_sqrt(value: complex) -> complex:
    """Square root with non-negative real part; ties resolved toward Im >= 0."""
    root = cmath.sqrt(complex(value))
    if root.real < 0 or (root.real == 0 and root.imag < 0):
        root = -root
    return root


@dataclass(frozen=True)
class CoefficientJet:
    """Taylor data of one scalar coefficient field about the expansion center.

    Layer n of ``poly`` holds the degree-n Taylor coefficients (derivatives
    over factorials) in centered coordinates X = x - center.
    """

    poly: GradedPoly

    @classmethod
    def constant(cls, dim: int, value: complex) -> "CoefficientJet":
        return cls(GradedPoly.constant(dim, complex(value)))

    @classmethod
    def from_polynomial(
        cls, poly: GradedPoly, center: Sequence[float] | None = None
    ) -> "CoefficientJet":
        """Exact jet of a globally polynomial coefficient, re-centered at ``center``."""
        center = tuple(center) if center is not None else (0.0,) * poly.dim
        return cls(poly.shifted(center))

    def value_at_center(self) -> complex:
        return self.poly.coeffs.get((0,) * self.poly.dim, 0j)


def as_jet(value: "CoefficientJet | GradedPoly") -> CoefficientJet:
    if isinstance(value, CoefficientJet):
        return value
    if isinstance(value, GradedPoly):
        return CoefficientJet(value)
    raise TypeError(f"cannot interpret {type(value).__name__} as a coefficient jet")


def _order_two_split(
    part: PrincipalPart2,
    degree: int,
    remainder: Callable[[GradedPoly], GradedPoly],
    target: GradedPoly,
    dispersion: Callable[[Sequence[float]], complex],
    label: str,
) -> OperatorSplit:
    """Split whose principal part is the frozen-coefficient ``part``, inverted layer by layer."""

    def solver(layer: int, rhs: HomogeneousPoly) -> HomogeneousPoly:
        if rhs.degree != layer:
            raise ValueError(f"layer {layer} solver got degree {rhs.degree}")
        return solve_layer(part, rhs)

    return OperatorSplit(
        dim=part.dim,
        order=2,
        layer_count=max(degree - 1, 0),
        principal=part.apply,
        remainder=remainder,
        rhs=target,
        solve_layer=solver,
        free_monomials=lambda layer: split_layer(part, layer).free,
        dispersion_wavenumber=dispersion,
        label=label,
    )


# -- Helmholtz ----------------------------------------------------------


def helmholtz_image(
    phase: GradedPoly, kappa_sq: GradedPoly, bound: int | None = None
) -> GradedPoly:
    """Image of exp(phase) under the Helmholtz operator, over exp(phase).

    Evaluates Lap(phase) + T_bound |grad(phase)|^2 + T_bound kappa_sq with
    exact polynomial arithmetic; ``bound=None`` truncates nothing.  Serves
    as the independent residual oracle for phases produced through the
    split machinery.
    """
    if bound is not None:
        if phase.degree > bound + 2:
            raise ValueError(f"phase degree {phase.degree} exceeds bound {bound} + 2")
        kappa_sq = kappa_sq.truncate(bound)
    grad_sq = GradedPoly.zero(phase.dim)
    for g in phase.gradient():
        grad_sq = grad_sq + g.mul_truncated(g, bound)
    return phase.laplacian() + grad_sq + kappa_sq


def make_helmholtz_split(
    kappa_sq: "CoefficientJet | GradedPoly", degree: int
) -> OperatorSplit:
    """Split of the variable-wavenumber Helmholtz phase equation at one degree.

    The principal part is the Laplacian, the remainder is the truncated
    gradient square, and the target is minus the truncated kappa^2 jet.
    A phase of degree 1 is allowed: the split then has no layers and every
    linear phase trivially satisfies the (empty) constraint.
    """
    jet = as_jet(kappa_sq)
    dim = jet.poly.dim
    if degree < 1:
        raise ValueError("phase degree must be at least 1")
    bound = degree - 2
    kappa0 = principal_sqrt(jet.value_at_center())

    def remainder(poly: GradedPoly) -> GradedPoly:
        out = GradedPoly.zero(dim)
        for g in poly.gradient():
            out = out + g.mul_truncated(g, bound)
        return out

    return _order_two_split(
        PrincipalPart2.laplace(dim),
        degree,
        remainder,
        -jet.poly.truncate(bound),
        lambda _direction: kappa0,
        "helmholtz",
    )


# -- convected Helmholtz --------------------------------------------------


def convected_principal_part(dim: int, rho0: complex, mach0: Sequence[complex]) -> PrincipalPart2:
    """Frozen-coefficient principal part rho0 * (Lap - (M0 . grad)^2)."""
    coeffs: dict[MultiIndex, complex] = {}
    for i in range(dim):
        for j in range(i, dim):
            index = tuple((2 if i == j else 1) if k in (i, j) else 0 for k in range(dim))
            cross = rho0 * mach0[i] * mach0[j] * (1 if i == j else 2)
            coeffs[index] = coeffs.get(index, 0j) - cross
    for i in range(dim):
        index = tuple(2 if k == i else 0 for k in range(dim))
        coeffs[index] = coeffs.get(index, 0j) + rho0
    return PrincipalPart2.build(dim, coeffs)


def make_convected_split(
    rho: "CoefficientJet | GradedPoly",
    mach: Sequence["CoefficientJet | GradedPoly"],
    kappa: complex,
    degree: int,
) -> OperatorSplit:
    """Split of the convected Helmholtz phase equation for the acoustic potential.

    ``rho`` is the fluid density jet, ``mach`` the components of the
    rescaled velocity jet (subsonic at the center), and ``kappa`` the
    constant wavenumber.  The full truncated operator is assembled term by
    term; the remainder is the full operator minus the frozen-coefficient
    principal block, and the target collects the phase-independent terms.
    """
    rho_jet = as_jet(rho)
    dim = rho_jet.poly.dim
    mach_jets = tuple(as_jet(m) for m in mach)
    if len(mach_jets) != dim or any(m.poly.dim != dim for m in mach_jets):
        raise ValueError("velocity jet must have one component per dimension")
    if degree < 2:
        raise ValueError("phase degree must be at least 2")
    bound = degree - 2

    rho0 = rho_jet.value_at_center()
    if rho0 == 0:
        raise ValueError("density must be nonzero at the center")
    mach0 = tuple(m.value_at_center() for m in mach_jets)
    speed = math.sqrt(sum(abs(m) ** 2 for m in mach0))
    if not speed < 1.0:
        raise ValueError(f"velocity magnitude {speed:.3f} at the center is not subsonic")

    kappa = complex(kappa)
    rho_p = rho_jet.poly
    mach_p = tuple(m.poly for m in mach_jets)
    part = convected_principal_part(dim, rho0, mach0)

    # scalar divergence of rho * M, exact from the jets
    div_rho_m = GradedPoly.zero(dim)
    for i in range(dim):
        div_rho_m = div_rho_m + rho_p.mul_truncated(mach_p[i], None).partial(i)

    def apply_full(poly: GradedPoly) -> GradedPoly:
        grads = poly.gradient()
        mach_dot_grad = GradedPoly.zero(dim)
        for i in range(dim):
            mach_dot_grad = mach_dot_grad + mach_p[i].mul_truncated(grads[i], bound)
        out = rho_p.mul_truncated(poly.laplacian(), bound)
        for i in range(dim):
            out = out + rho_p.partial(i).mul_truncated(grads[i], bound)
        for i in range(dim):
            for j in range(dim):
                advect = mach_p[i].mul_truncated(mach_p[j].partial(i), bound)
                advect = advect.mul_truncated(grads[j], bound)
                out = out - rho_p.mul_truncated(advect, bound)
        transport = div_rho_m - rho_p.scaled(2j * kappa)
        out = out - transport.mul_truncated(mach_dot_grad, bound)
        for i in range(dim):
            for j in range(dim):
                hess = rho_p.mul_truncated(mach_p[i], bound).mul_truncated(mach_p[j], bound)
                out = out - hess.mul_truncated(poly.hessian_entry(i, j), bound)
        for g in grads:
            out = out + rho_p.mul_truncated(g.mul_truncated(g, bound), bound)
        out = out - rho_p.mul_truncated(mach_dot_grad.mul_truncated(mach_dot_grad, bound), bound)
        return out.truncate(bound)

    def remainder(poly: GradedPoly) -> GradedPoly:
        return apply_full(poly) - part.apply(poly)

    target = -(div_rho_m.scaled(1j * kappa) + rho_p.scaled(kappa**2)).truncate(bound)

    def dispersion(direction: Sequence[float]) -> complex:
        along = sum(m * d for m, d in zip(mach0, direction))
        return kappa / (1.0 + along)

    return _order_two_split(part, degree, remainder, target, dispersion, "convected")


def convected_residual_at(
    phase: GradedPoly,
    rho0: complex,
    mach0: Sequence[complex],
    kappa: complex,
    offset: Sequence[float],
) -> complex:
    """Constant-coefficient convected operator applied to exp(phase), at one point.

    For constant rho and M the operator reduces to
    rho0 * (Lap - (M0 . grad)^2 + 2 i kappa M0 . grad + kappa^2); applied to
    an exponential of a polynomial phase this is an exact polynomial times
    the exponential, evaluated here without any truncation.  Independent
    check for constant-coefficient basis functions.
    """
    grads = phase.gradient()
    along = GradedPoly.zero(phase.dim)
    for m, g in zip(mach0, grads):
        along = along + g.scaled(m)
    grad_sq = GradedPoly.zero(phase.dim)
    for g in grads:
        grad_sq = grad_sq + g.mul_truncated(g, None)
    along_sq = along.mul_truncated(along, None)
    along_deriv = GradedPoly.zero(phase.dim)
    for i, mi in enumerate(mach0):
        for j, mj in enumerate(mach0):
            along_deriv = along_deriv + phase.hessian_entry(i, j).scaled(mi * mj)
    symbol = (
        phase.laplacian()
        + grad_sq
        - along_deriv
        - along_sq
        + along.scaled(2j * kappa)
        + GradedPoly.constant(phase.dim, kappa**2)
    )
    return rho0 * symbol.evaluate(offset) * cmath.exp(phase.evaluate(offset))


# -- coefficient presets --------------------------------------------------


def omode_kappa_sq(dim: int, kappa0_sq: complex, cutoff: float) -> GradedPoly:
    """Wavenumber-squared profile with an affine density ramp along the first axis.

    kappa^2(x) = kappa0_sq * (1 - x_1 / cutoff) in global coordinates: the
    medium propagates for x_1 < cutoff and is evanescent beyond.
    """
    if cutoff == 0:
        raise ValueError("cutoff position must be nonzero")
    axis = tuple(1 if i == 0 else 0 for i in range(dim))
    return GradedPoly(
        dim,
        {(0,) * dim: complex(kappa0_sq), axis: -complex(kappa0_sq) / cutoff},
    )
