import cmath

import numpy as np
import pytest

from gpwlab import operators
from gpwlab.approx import sphere_points
from gpwlab.basis import build_family, build_gpw, unit_circle_directions, unit_sphere_directions
from gpwlab.frame import random_poly, verify_split
from gpwlab.operators import (
    CoefficientJet,
    convected_residual_at,
    helmholtz_image,
    make_convected_split,
    make_helmholtz_split,
    omode_kappa_sq,
    principal_sqrt,
)
from gpwlab.polycore import GradedPoly, evaluate_each, monomials_up_to

X = GradedPoly.variable(2, 0)
Y = GradedPoly.variable(2, 1)


def plane_phase(dim, kappa, direction):
    coeffs = {
        tuple(1 if i == axis else 0 for i in range(dim)): 1j * kappa * c
        for axis, c in enumerate(direction)
        if c != 0
    }
    return GradedPoly(dim, coeffs)


class TestPrincipalSqrt:
    def test_positive(self):
        assert principal_sqrt(4.0) == 2.0

    def test_negative_goes_to_upper_imaginary(self):
        assert principal_sqrt(-4.0) == 2j

    def test_complex_keeps_nonnegative_real_part(self):
        for value in (3 + 4j, -3 + 4j, -3 - 4j, 3 - 4j, -1.0, 1.0):
            root = principal_sqrt(value)
            assert root.real >= 0
            assert abs(root * root - value) < 1e-14 * max(1.0, abs(value))


class TestHelmholtzImage:
    def test_dispersion_matched_plane_phase(self):
        phase = plane_phase(2, 5.0, (0.6, 0.8))
        image = helmholtz_image(phase, GradedPoly.constant(2, 25.0), 2)
        assert image.max_abs() <= 1e-13 * 25.0

    def test_pure_square_phase(self):
        image = helmholtz_image(X * X, GradedPoly.zero(2), 2)
        assert image.coeffs == {(0, 0): 2 + 0j, (2, 0): 4 + 0j}

    def test_zero_phase_returns_coefficient(self):
        kappa_sq = GradedPoly(2, {(0, 0): 9.0, (1, 0): 0.3})
        image = helmholtz_image(GradedPoly.zero(2), kappa_sq, 1)
        assert image == kappa_sq

    def test_degree_bound_enforced(self):
        with pytest.raises(ValueError):
            helmholtz_image(GradedPoly(2, {(5, 0): 1.0}), GradedPoly.zero(2), 2)


class TestHelmholtzSplit:
    def test_constant_wavenumber_target(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 25.0), 2)
        assert split.layer_count == 1
        assert split.rhs == GradedPoly.constant(2, -25.0)

    def test_affine_wavenumber_target(self):
        kappa_sq = GradedPoly(2, {(0, 0): 9.0, (1, 0): 0.7})
        split = make_helmholtz_split(kappa_sq, 3)
        assert split.rhs == -kappa_sq

    def test_random_jet_hypotheses_pass(self):
        rng = np.random.default_rng(21)
        kappa_sq = random_poly(rng, 2, 3) + GradedPoly.constant(2, 4.0)
        split = make_helmholtz_split(kappa_sq, 5)
        assert verify_split(split, trials=10, seed=1).passed

    def test_degenerate_degree_one_split(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 4.0), 1)
        assert split.layer_count == 0
        assert not split.rhs
        assert not split.remainder(X * X + Y)

    def test_zero_phase_residual_is_minus_target(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 25.0), 4)
        residual = split.residual(GradedPoly.zero(2))
        assert residual == GradedPoly.constant(2, 25.0)

    def test_split_residual_matches_image_oracle(self):
        # split route (principal + remainder - rhs) against the direct assembly
        rng = np.random.default_rng(12)
        kappa_sq = random_poly(rng, 2, 2) + GradedPoly.constant(2, 7.0)
        split = make_helmholtz_split(kappa_sq, 4)
        for _ in range(20):
            phase = random_poly(rng, 2, 4)
            via_split = split.residual(phase)
            via_image = helmholtz_image(phase, kappa_sq, 2)
            assert (via_split - via_image).max_abs() <= 1e-12 * max(
                1.0, via_image.max_abs()
            )


class TestHelmholtzRemainderStructure:
    def test_degree_shift_is_doubled(self):
        # input on phase layers >= n+2 puts the gradient square on layers >= 2n+2
        rng = np.random.default_rng(40)
        degree = 6
        split = make_helmholtz_split(GradedPoly.constant(2, 1.0), degree)
        for n in range(degree - 1):
            poly = random_poly(rng, 2, degree, min_degree=n + 2)
            image = split.remainder(poly)
            assert image.truncate(2 * n + 1).max_abs() <= 1e-14 * max(1.0, poly.max_abs())

    def test_projection_locality_prefix_depth(self):
        # image layer n only sees phase layers up to n+1
        rng = np.random.default_rng(41)
        degree = 6
        split = make_helmholtz_split(GradedPoly.constant(2, 1.0), degree)
        full = random_poly(rng, 2, degree)
        image = split.remainder(full)
        for n in range(degree - 1):
            prefix = full.truncate(n + 1)
            gap = image.layer(n) - split.remainder(prefix).layer(n)
            assert gap.max_abs() <= 1e-12 * max(1.0, image.max_abs())


def constant_flow_split(dim, rho0, mach0, kappa=1.0, degree=6):
    return make_convected_split(
        CoefficientJet.constant(dim, rho0),
        [CoefficientJet.constant(dim, m) for m in mach0],
        kappa,
        degree,
    )


class TestConvectedPrincipal:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_part_apply_matches_hessian_formula(self, dim):
        # reference: rho0 * Lap(P) - sum_ij rho0 * M_i * M_j * d_i d_j P, term by term
        rng = np.random.default_rng(30 + dim)
        for _ in range(10):
            rho0 = complex(*rng.uniform(0.5, 1.5, 2))
            mach0 = tuple(complex(*rng.uniform(-0.4, 0.4, 2)) for _ in range(dim))
            poly = random_poly(rng, dim, 6)
            expected = poly.laplacian().scaled(rho0)
            for i in range(dim):
                for j in range(dim):
                    expected = expected - poly.hessian_entry(i, j).scaled(
                        rho0 * mach0[i] * mach0[j]
                    )
            got = constant_flow_split(dim, rho0, mach0).principal(poly)
            assert (got - expected).max_abs() <= 1e-13 * max(1.0, expected.max_abs())

    def test_zero_velocity_reduces_to_scaled_laplacian(self):
        rng = np.random.default_rng(2)
        poly = random_poly(rng, 2, 4)
        got = constant_flow_split(2, 1.7, (0.0, 0.0)).principal(poly)
        assert (got - poly.laplacian().scaled(1.7)).max_abs() <= 1e-14

    def test_near_sonic_pivot_coefficient(self):
        # with the flow aligned to the axis, the pure second derivative nearly cancels
        rho0 = 1.3
        got = constant_flow_split(2, rho0, (0.999, 0.0)).principal(X * X)
        assert got.coeffs == {(0, 0): pytest.approx(2 * rho0 * (1 - 0.999**2), rel=1e-12)}

    def test_cross_term(self):
        got = constant_flow_split(2, 1.0, (0.3, -0.5)).principal(X.mul_truncated(Y, None))
        assert got.coeffs == {(0, 0): pytest.approx(2 * 0.3 * 0.5)}


def term_by_term_convected(rho, mach, kappa, degree):
    """Reference remainder and target of the convected split, assembled term by term.

    The whole truncated operator over exp(P) is built from rho and M on
    every call; the remainder is that operator minus the frozen-coefficient
    Hessian block rho0 * (Lap - (M0 . grad)^2).
    """
    dim = rho.dim
    bound = degree - 2
    rho0 = rho.coeffs.get((0,) * dim, 0j)
    mach0 = [m.coeffs.get((0,) * dim, 0j) for m in mach]
    div_rho_m = GradedPoly.zero(dim)
    for i in range(dim):
        div_rho_m = div_rho_m + rho.mul_truncated(mach[i], None).partial(i)

    def apply_full(poly):
        grads = poly.gradient()
        mach_dot_grad = GradedPoly.zero(dim)
        for i in range(dim):
            mach_dot_grad = mach_dot_grad + mach[i].mul_truncated(grads[i], bound)
        out = rho.mul_truncated(poly.laplacian(), bound)
        for i in range(dim):
            out = out + rho.partial(i).mul_truncated(grads[i], bound)
        for i in range(dim):
            for j in range(dim):
                advect = mach[i].mul_truncated(mach[j].partial(i), bound)
                advect = advect.mul_truncated(grads[j], bound)
                out = out - rho.mul_truncated(advect, bound)
        transport = div_rho_m - rho.scaled(2j * kappa)
        out = out - transport.mul_truncated(mach_dot_grad, bound)
        for i in range(dim):
            for j in range(dim):
                hess = rho.mul_truncated(mach[i], bound).mul_truncated(mach[j], bound)
                out = out - hess.mul_truncated(poly.hessian_entry(i, j), bound)
        for g in grads:
            out = out + rho.mul_truncated(g.mul_truncated(g, bound), bound)
        out = out - rho.mul_truncated(mach_dot_grad.mul_truncated(mach_dot_grad, bound), bound)
        return out.truncate(bound)

    def principal(poly):
        out = poly.laplacian().scaled(rho0)
        for i in range(dim):
            for j in range(dim):
                out = out - poly.hessian_entry(i, j).scaled(rho0 * mach0[i] * mach0[j])
        return out

    def remainder(poly):
        return apply_full(poly) - principal(poly)

    target = -(div_rho_m.scaled(1j * kappa) + rho.scaled(kappa**2)).truncate(bound)
    return remainder, target


class TestConvectedReference:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_split_matches_term_by_term_operator(self, dim, degree):
        # variable rho (degree 3) and complex M (degree 2), complex kappa
        rng = np.random.default_rng(10 * dim + degree)
        rho = GradedPoly.constant(dim, complex(*rng.uniform(0.8, 1.2, 2)))
        rho = rho + random_poly(rng, dim, 3, min_degree=1).scaled(0.2)
        mach = [
            GradedPoly.constant(dim, complex(*rng.uniform(-0.3, 0.3, 2)))
            + random_poly(rng, dim, 2, min_degree=1).scaled(0.1)
            for _ in range(dim)
        ]
        kappa = 3 + 0.5j
        split = make_convected_split(rho, mach, kappa, degree)
        remainder, target = term_by_term_convected(rho, mach, kappa, degree)
        assert (split.rhs - target).max_abs() <= 1e-13 * max(1.0, target.max_abs())
        for _ in range(5):
            poly = random_poly(rng, dim, degree)
            expected = remainder(poly)
            got = split.remainder(poly)
            assert (got - expected).max_abs() <= 1e-13 * max(1.0, expected.max_abs())

    def test_constant_flow_remainder_structure_is_exact(self):
        # constant coefficients: the remainder is gradient products only, so
        # layers below the shift and the top-layer image are exact zeros
        split = constant_flow_split(3, 1.2, (0.3, -0.2, 0.1), kappa=3 + 0.5j, degree=6)
        report = verify_split(split, trials=10, seed=3)
        worst = {check.check: check.max_violation for check in report.checks}
        assert worst["remainder_top_zero"] == 0.0
        assert worst["remainder_degree_shift"] == 0.0


def convected_image(phase, rho, mach, kappa):
    """L exp(P) / exp(P), exact, for the convected operator in divergence form
    L u = div(rho grad u) - (div(rho M .) - i kappa rho)(M . grad u - i kappa u).

    With w = M . grad P - i kappa this is div(rho grad P) + rho |grad P|^2
    - div(rho M w) - rho w M . grad P + i kappa rho w: plain products and
    derivatives of rho, M and P, nothing truncated and no split code.
    """
    zero = GradedPoly.zero(phase.dim)
    grads = phase.gradient()
    along = sum((m * g for m, g in zip(mach, grads)), zero)
    rho_w = rho * (along - GradedPoly.constant(phase.dim, 1j * kappa))
    out = sum(((rho * g - rho_w * m).partial(i) for i, (g, m) in enumerate(zip(grads, mach))), zero)
    return out + rho * sum((g * g for g in grads), zero) - rho_w * along + rho_w.scaled(1j * kappa)


class TestConvectedResidualOrder:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("degree", [3, 4, 5, 6])
    def test_variable_rho_and_mach_residual_decays_at_order_p_minus_1(self, dim, degree):
        # the slack of acceptance criterion 7: max |L phi| on spheres of radius
        # 0.4 to 0.05 falls with a log-log slope of at least p - 1 - 0.25
        rng = np.random.default_rng(70 + 10 * dim + degree)

        def field(value, scale):
            terms = {index: scale * rng.uniform(-1, 1) for index in monomials_up_to(dim, 2)[1:]}
            return GradedPoly(dim, {(0,) * dim: value, **terms})

        rho = field(1.0, 0.2)
        mach = [field(rng.uniform(-0.25, 0.25), 0.1) for _ in range(dim)]
        kappa = 3.0
        split = make_convected_split(rho, mach, kappa, degree)
        direction = np.ones(dim) / np.sqrt(dim)
        phase = build_gpw(split, tuple(direction)).phase
        image = convected_image(phase, rho, mach, kappa)
        radii = (0.4, 0.2, 0.1, 0.05)
        worst = []
        for h in radii:
            values, phases = evaluate_each([image, phase], sphere_points(dim, (0,) * dim, h, 48))
            worst.append(float(np.abs(values * np.exp(phases)).max()))
        slope = np.polyfit(np.log(radii), np.log(worst), 1)[0]
        assert slope >= degree - 1 - 0.25, (worst, slope)


def convected_residual_reference(phase, rho0, mach0, kappa, offset):
    """The per-point constant-coefficient convected residual, term by term, at one point."""
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


class TestConvectedSplit:
    def test_supersonic_rejected(self):
        rho = CoefficientJet.constant(2, 1.0)
        mach = [CoefficientJet.constant(2, 0.9), CoefficientJet.constant(2, 0.8)]
        with pytest.raises(ValueError):
            make_convected_split(rho, mach, 2.0, 3)

    def test_zero_density_rejected(self):
        rho = CoefficientJet.constant(2, 0.0)
        mach = [CoefficientJet.constant(2, 0.0)] * 2
        with pytest.raises(ValueError):
            make_convected_split(rho, mach, 2.0, 3)

    def test_dispersion_matched_phase_is_exact(self):
        rho0, mach0, kappa = 1.4, (0.35, -0.15), 3.0
        split = make_convected_split(
            CoefficientJet.constant(2, rho0),
            [CoefficientJet.constant(2, m) for m in mach0],
            kappa,
            4,
        )
        direction = (0.8, 0.6)
        wavenumber = split.dispersion_wavenumber(direction)
        along = sum(m * d for m, d in zip(mach0, direction))
        assert wavenumber == pytest.approx(kappa / (1 + along))
        phase = plane_phase(2, wavenumber, direction)
        assert split.residual(phase).max_abs() <= 1e-12 * kappa**2

    def test_full_operator_finite_difference_oracle(self):
        # independent check of the constant-coefficient operator on the exact
        # exponential: every term evaluated from function samples only
        rho0, mach0, kappa = 1.2, (0.3, -0.2), 4.0
        split = make_convected_split(
            CoefficientJet.constant(2, rho0),
            [CoefficientJet.constant(2, m) for m in mach0],
            kappa,
            3,
        )
        direction = (0.6, 0.8)
        wavenumber = split.dispersion_wavenumber(direction)

        def phi(point):
            return cmath.exp(1j * wavenumber * (direction[0] * point[0] + direction[1] * point[1]))

        def operator_fd(point, step=1e-4):
            x, y = point
            lap = (
                phi((x + step, y)) - 2 * phi((x, y)) + phi((x - step, y))
                + phi((x, y + step)) - 2 * phi((x, y)) + phi((x, y - step))
            ) / step**2
            along2 = (
                phi((x + step * mach0[0], y + step * mach0[1]))
                - 2 * phi((x, y))
                + phi((x - step * mach0[0], y - step * mach0[1]))
            ) / step**2
            along1 = (
                phi((x + step * mach0[0], y + step * mach0[1]))
                - phi((x - step * mach0[0], y - step * mach0[1]))
            ) / (2 * step)
            return rho0 * (lap - along2 + 2j * kappa * along1 + kappa**2 * phi((x, y)))

        rng = np.random.default_rng(6)
        for point in rng.uniform(-0.4, 0.4, (10, 2)):
            assert abs(operator_fd(tuple(point))) <= 1e-4

    def test_exact_residual_helper_agrees_with_split(self):
        rho0, mach0, kappa = 1.1, (0.25, 0.1), 2.5
        split = make_convected_split(
            CoefficientJet.constant(2, rho0),
            [CoefficientJet.constant(2, m) for m in mach0],
            kappa,
            4,
        )
        direction = (0.0, 1.0)
        phase = plane_phase(2, split.dispersion_wavenumber(direction), direction)
        values = convected_residual_at(phase, rho0, mach0, kappa, [(0.1, 0.2), (-0.3, 0.05)])
        assert values.shape == (2,)
        assert np.abs(values).max() <= 1e-12

    @pytest.mark.parametrize("dim", [2, 3])
    def test_batched_residual_matches_per_point_formula(self, dim):
        rho0, kappa = 1.2, 3.0 + 0.5j
        mach0 = (0.3, -0.2, 0.1)[:dim]
        split = constant_flow_split(dim, rho0, mach0, kappa=kappa, degree=5)
        rng = np.random.default_rng(30 + dim)
        directions = unit_circle_directions(3) if dim == 2 else unit_sphere_directions(3)
        phases = [phi.phase for phi in build_family(split, directions)]
        phases.append(random_poly(rng, dim, 4))
        offsets = rng.uniform(-0.5, 0.5, (20, dim))
        for phase in phases:
            batch = convected_residual_at(phase, rho0, mach0, kappa, offsets)
            reference = [
                convected_residual_reference(phase, rho0, mach0, kappa, tuple(point))
                for point in offsets
            ]
            scale = max(abs(value) for value in reference)
            assert np.abs(batch - reference).max() <= 1e-13 * scale

    @pytest.mark.parametrize("dim", [2, 3])
    def test_residual_has_the_bits_of_two_evaluations(self, dim, monkeypatch):
        rho0, kappa, mach0 = 1.2, 3.0 + 0.5j, (0.3, -0.2, 0.1)[:dim]
        split = constant_flow_split(dim, rho0, mach0, kappa=kappa, degree=5)
        directions = unit_circle_directions(2) if dim == 2 else unit_sphere_directions(2)
        offsets = np.random.default_rng(dim).uniform(-0.5, 0.5, (30, dim))
        for phi in build_family(split, directions):
            got = convected_residual_at(phi.phase, rho0, mach0, kappa, offsets)
            with monkeypatch.context() as patch:
                patch.setattr(
                    operators, "evaluate_each",
                    lambda polys, points: [poly.evaluate_many(points) for poly in polys],
                )
                want = convected_residual_at(phi.phase, rho0, mach0, kappa, offsets)
            assert got.tobytes() == want.tobytes()

    def test_reduces_to_helmholtz_without_flow(self):
        rng = np.random.default_rng(14)
        kappa = 3.0
        convected = make_convected_split(
            CoefficientJet.constant(2, 1.0),
            [CoefficientJet.constant(2, 0.0)] * 2,
            kappa,
            4,
        )
        plain = make_helmholtz_split(GradedPoly.constant(2, kappa**2), 4)
        assert (convected.rhs - plain.rhs).max_abs() <= 1e-14 * kappa**2
        for _ in range(50):
            poly = random_poly(rng, 2, 4)
            assert (convected.principal(poly) - plain.principal(poly)).max_abs() <= 1e-13
            assert (convected.remainder(poly) - plain.remainder(poly)).max_abs() <= 1e-13

    def test_variable_coefficients_pass_hypotheses(self):
        rho = CoefficientJet(
            GradedPoly(2, {(0, 0): 1.0, (1, 0): 0.1, (0, 1): -0.05, (1, 1): 0.02})
        )
        mach = [
            CoefficientJet(GradedPoly(2, {(0, 0): 0.2, (0, 1): 0.06})),
            CoefficientJet(GradedPoly(2, {(0, 0): -0.1, (1, 0): 0.04})),
        ]
        split = make_convected_split(rho, mach, 3.0, 4)
        assert verify_split(split, trials=10, seed=4).passed

    def test_operator_maps_into_image_degrees(self):
        rng = np.random.default_rng(16)
        split = make_convected_split(
            CoefficientJet(GradedPoly(2, {(0, 0): 1.0, (1, 0): 0.2})),
            [CoefficientJet.constant(2, 0.3), CoefficientJet.constant(2, 0.0)],
            2.0,
            4,
        )
        for _ in range(10):
            poly = random_poly(rng, 2, 4)
            for image in (split.principal(poly), split.remainder(poly), split.apply(poly)):
                assert image.degree <= 2


class TestJets:
    def test_from_polynomial_recenters(self):
        field = GradedPoly(2, {(2, 0): 1.0, (0, 1): -2.0, (0, 0): 0.5})
        jet = CoefficientJet.from_polynomial(field, (0.3, -0.2))
        rng = np.random.default_rng(9)
        for point in rng.uniform(-1, 1, (20, 2)):
            offset = (point[0] - 0.3, point[1] + 0.2)
            assert abs(jet.poly.evaluate(offset) - field.evaluate(point)) < 1e-12

    def test_constant_jet(self):
        jet = CoefficientJet.constant(3, 2 - 1j)
        assert jet.value_at_center() == 2 - 1j

    def test_omode_profile(self):
        profile = omode_kappa_sq(2, 10.0, 2.0)
        assert profile.evaluate((0.0, 0.0)) == 10.0
        assert profile.evaluate((2.0, 1.0)) == 0.0  # cut-off position
        assert profile.evaluate((4.0, 0.0)) == -10.0  # evanescent side

    def test_omode_needs_finite_cutoff(self):
        with pytest.raises(ValueError):
            omode_kappa_sq(2, 10.0, 0.0)
