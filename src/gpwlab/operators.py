"""Helmholtz and convected-Helmholtz operators as graded splits.

Both operators are L u = sum_ij A_ij d_ij u + sum_i b_i d_i u + c u with
coefficient jets (A, b, c), acting on exponentials of polynomial phases.
Dividing the image by the exponential and truncating the Taylor expansion
at the center yields a polynomial equation for the phase, which splits into
the frozen-coefficient principal part (the layer-respecting linear block)
plus a remainder carrying the gradient products and the variable parts of
the coefficients.  One builder makes this split from (A, b, c) for both
factories below.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .frame import OperatorSplit
from .layers import PrincipalPart2, solve_layer, split_layer
from .polycore import GradedPoly, HomogeneousPoly, evaluate_each


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


def _second_order_split(
    a: Mapping[tuple[int, int], GradedPoly],
    b: Sequence[GradedPoly],
    c: GradedPoly,
    degree: int,
    dispersion: Callable[[Sequence[float]], complex],
    label: str,
) -> OperatorSplit:
    """Split of the phase equation of L u = sum_ij A_ij d_ij u + sum_i b_i d_i u + c u.

    ``a`` maps (i, j), i <= j, to the jet of the symmetric A_ij (missing
    entries are zero); ``b`` holds one jet per axis.  Over exp(P), L gives
    sum_ij A_ij (d_ij P + d_i P d_j P) + b . grad P + c.  With w_ij = 2 off
    the diagonal and 1 on it and V_ij = A_ij - A_ij(0), the principal part
    is sum w_ij A_ij(0) d_ij, the remainder
    T_bound[sum w_ij (V_ij (d_ij P + d_i P d_j P) + A_ij(0) d_i P d_j P) + b . grad P]
    and the target -T_bound c.  Grouped this way, each varying coefficient
    multiplies once per call; with V = 0 only the gradient products remain.
    """
    dim, bound = c.dim, degree - 2
    frozen, quadratic = {}, []
    for (i, j), jet in sorted(a.items()):
        jet = jet if i == j else jet.scaled(2)
        at_center = jet.vec[0] if jet.cap >= 0 else 0j
        frozen[tuple((k == i) + (k == j) for k in range(dim))] = at_center
        constant = GradedPoly.constant(dim, at_center)
        varying, times = _multiplier(jet - constant, bound), _multiplier(constant, bound)
        if varying or times:
            quadratic.append((i, j, varying, times))
    linear = [(i, times) for i, jet in enumerate(b) if (times := _multiplier(jet, bound))]
    part = PrincipalPart2.build(dim, frozen)

    def remainder(poly: GradedPoly) -> GradedPoly:
        grads = poly.gradient()
        out = GradedPoly.zero(dim)
        for i, j, varying, times in quadratic:
            square = grads[i].mul_truncated(grads[j], bound)
            if varying:
                out = out + varying(poly.hessian_entry(i, j) + square)
            if times:
                out = out + times(square)
        for i, times in linear:
            out = out + times(grads[i])
        return out

    def solver(layer: int, rhs: HomogeneousPoly) -> HomogeneousPoly:
        if rhs.degree != layer:
            raise ValueError(f"layer {layer} solver got degree {rhs.degree}")
        return solve_layer(part, rhs)

    return OperatorSplit(
        dim=dim,
        order=2,
        layer_count=max(degree - 1, 0),
        principal=part.apply,
        remainder=remainder,
        rhs=-c.truncate(bound),
        solve_layer=solver,
        free_monomials=lambda layer: split_layer(part, layer).free,
        dispersion_wavenumber=dispersion,
        label=label,
    )


def _multiplier(coefficient: GradedPoly, bound: int) -> Callable[[GradedPoly], GradedPoly] | None:
    """poly -> T_bound(coefficient * poly); None if zero, a scaling if constant, T_bound if 1."""
    coefficient = coefficient.truncate(bound)
    if not coefficient:
        return None
    if coefficient.degree > 0:
        return lambda poly: coefficient.mul_truncated(poly, bound)
    value = complex(coefficient.vec[0])
    if value == 1:
        return lambda poly: poly.truncate(bound)
    return lambda poly: poly.truncate(bound).scaled(value)


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

    (A, b, c) = (I, 0, kappa^2): the principal part is the Laplacian, the
    remainder the truncated gradient square, and the target minus the
    truncated kappa^2 jet.  A phase of degree 1 is allowed: the split then
    has no layers and every linear phase satisfies the (empty) constraint.
    """
    jet = as_jet(kappa_sq)
    dim = jet.poly.dim
    if degree < 1:
        raise ValueError("phase degree must be at least 1")
    kappa0 = principal_sqrt(jet.value_at_center())
    return _second_order_split(
        {(i, i): GradedPoly.constant(dim, 1.0) for i in range(dim)},
        (GradedPoly.zero(dim),) * dim,
        jet.poly,
        degree,
        lambda _direction: kappa0,
        "helmholtz",
    )


# -- convected Helmholtz --------------------------------------------------


def make_convected_split(
    rho: "CoefficientJet | GradedPoly",
    mach: Sequence["CoefficientJet | GradedPoly"],
    kappa: complex,
    degree: int,
) -> OperatorSplit:
    """Split of the convected Helmholtz phase equation for the acoustic potential.

    ``rho`` is the fluid density jet, ``mach`` the components of the
    rescaled velocity jet (subsonic at the center), and ``kappa`` the
    constant wavenumber.  The operator is the form (A, b, c) with
    A_ij = rho (delta_ij - M_i M_j),
    b_j = d_j rho - sum_i rho M_i d_i M_j - (div(rho M) - 2i kappa rho) M_j
    and c = i kappa div(rho M) + rho kappa^2, each computed once per split.
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
    zero = GradedPoly.zero(dim)
    rho_m = tuple(rho_p.mul_truncated(m, bound + 1) for m in mach_p)
    div_rho_m = sum((rho_m[i].partial(i) for i in range(dim)), zero)
    transport = div_rho_m - rho_p.scaled(2j * kappa)
    a = {
        (i, j): (rho_p if i == j else zero) - rho_m[i].mul_truncated(mach_p[j], bound)
        for i in range(dim)
        for j in range(i, dim)
    }
    b = [
        rho_p.partial(j)
        - sum((rho_m[i].mul_truncated(mach_p[j].partial(i), bound) for i in range(dim)), zero)
        - transport.mul_truncated(mach_p[j], bound)
        for j in range(dim)
    ]
    c = div_rho_m.scaled(1j * kappa) + rho_p.scaled(kappa**2)

    def dispersion(direction: Sequence[float]) -> complex:
        along = sum(m * d for m, d in zip(mach0, direction))
        return kappa / (1.0 + along)

    return _second_order_split(a, b, c, degree, dispersion, "convected")


def convected_residual_at(
    phase: GradedPoly,
    rho0: complex,
    mach0: Sequence[complex],
    kappa: complex,
    offsets: Sequence[Sequence[float]] | np.ndarray,
) -> np.ndarray:
    """Constant-coefficient convected operator applied to exp(phase), at many points.

    For constant rho and M the operator reduces to
    rho0 * (Lap - (M0 . grad)^2 + 2 i kappa M0 . grad + kappa^2); applied to
    an exponential of a polynomial phase this is an exact polynomial symbol
    times the exponential.  The symbol is built once, without any
    truncation, and it and the phase are evaluated together, from one
    Vandermonde matrix, at the rows of the (n, dim) array ``offsets``;
    returns the n values.  Independent check for constant-coefficient basis
    functions.
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
    symbol_values, phase_values = evaluate_each([symbol, phase], offsets)
    return rho0 * symbol_values * np.exp(phase_values)


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
