import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpwlab import approx
from gpwlab.approx import (
    DecayReport,
    _fit_values,
    ball_points,
    convergence_study,
    family_fit_error,
    fit_points,
    helmholtz_residual_exact,
    helmholtz_residual_fd,
    manufactured_helmholtz,
    rank_comparison,
    sphere_points,
    residual_order_study,
    taylor_matrix,
    taylor_rank,
    taylor_truncation,
)
from gpwlab.basis import (
    ExpPhase,
    GpwFunction,
    build_family,
    build_gpw,
    plane_wave,
    plane_wave_family,
    unit_circle_directions,
    unit_sphere_directions,
)
from gpwlab.frame import random_poly
from gpwlab.operators import (
    CoefficientJet,
    make_convected_split,
    helmholtz_image,
    make_helmholtz_split,
    omode_kappa_sq,
)
from gpwlab.polycore import GradedPoly, monomials_of_degree, monomials_up_to, space_dimension

RADII = (0.4, 0.2, 0.1, 0.05)


def constant_split(kappa0_sq=9.0, degree=2, dim=2):
    return make_helmholtz_split(GradedPoly.constant(dim, kappa0_sq), degree)


def smooth_phase(rng, dim=2, base=1.8, wiggle=0.3, top=3):
    angle = rng.uniform(0, 2 * math.pi)
    if dim == 2:
        coeffs = {(1, 0): 1j * base * math.cos(angle), (0, 1): 1j * base * math.sin(angle)}
    else:
        raise NotImplementedError
    for n in range(2, top + 1):
        for index in monomials_of_degree(dim, n):
            re, im = rng.uniform(-wiggle, wiggle, 2)
            coeffs[index] = complex(re, im)
    return GradedPoly(dim, coeffs)


class TestTaylorTruncation:
    def test_plane_wave_coefficients(self):
        # T_p exp(ik d.X): coefficient of X^a Y^b is (ik dx)^a (ik dy)^b / (a! b!)
        kappa, direction = 3.0, (0.6, 0.8)
        psi = plane_wave(2, kappa, direction, 3)
        truncated = taylor_truncation(psi, 3)
        for (a, b), got in truncated.coeffs.items():
            expected = (
                (1j * kappa * direction[0]) ** a
                * (1j * kappa * direction[1]) ** b
                / (math.factorial(a) * math.factorial(b))
            )
            assert got == pytest.approx(expected, rel=1e-13)

    def test_truncation_error_order(self):
        split = constant_split(degree=3)
        phi = build_gpw(split, (0.6, 0.8))
        truncated = taylor_truncation(phi, 3)
        for h in (0.1, 0.05):
            worst = max(
                abs(phi(np.add(phi.center, (h * c, h * s))) - truncated.evaluate((h * c, h * s)))
                for c, s in unit_circle_directions(16)
            )
            assert worst <= 5.0 * (3.0 * h) ** 4 / 24.0

    def test_constant_phase_term_factored_exactly(self):
        carrier = GpwFunction(
            center=(0.0, 0.0),
            phase=GradedPoly(2, {(0, 0): 0.2 - 0.3j, (1, 0): 1.5j, (0, 2): 0.1}),
            degree=4,
            direction=(1.0, 0.0),
            operator="test",
            residual_norm=0.0,
        )
        truncated = taylor_truncation(carrier, 4)
        for point in ((0.05, -0.02), (0.1, 0.08)):
            direct = carrier(point)
            assert truncated.evaluate(point) == pytest.approx(direct, rel=1e-4)


class TestRank:
    def test_matrix_shape(self):
        # one row per function, one column per monomial of degree <= p
        split = constant_split(degree=3)
        family = plane_wave_family(split, unit_circle_directions(4))
        assert taylor_matrix(family, 3).shape == (4, 10)

    def test_plane_wave_rank_exact_count(self):
        split = constant_split(degree=2)
        family = plane_wave_family(split, unit_circle_directions(5))
        rank, _ = taylor_rank(family, 2)
        assert rank == 5

    def test_rank_saturates(self):
        split = constant_split(degree=2)
        family = plane_wave_family(split, unit_circle_directions(10))
        rank, singulars = taylor_rank(family, 2)
        assert rank == 5
        assert len(singulars) == 6  # min(10 functions, 6 monomials of degree <= 2)

    def test_single_function(self):
        split = constant_split(degree=2)
        family = plane_wave_family(split, [(1.0, 0.0)])
        assert taylor_rank(family, 2)[0] == 1

    @pytest.mark.parametrize("degree", [1, 2, 3, 4])
    def test_saturation_monotone_capped_2d(self, degree):
        split = constant_split(degree=degree)
        cap = 2 * degree + 1
        previous = 0
        for count in (cap, cap + 3, 2 * cap):
            family = plane_wave_family(split, unit_circle_directions(count))
            rank, _ = taylor_rank(family, degree)
            assert previous <= rank <= cap
            previous = rank
        assert previous == cap

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_saturation_monotone_capped_3d(self, degree):
        split = constant_split(degree=degree, dim=3)
        cap = (degree + 1) ** 2
        previous = 0
        for count in (cap, cap + 4, 2 * cap):
            family = plane_wave_family(split, unit_sphere_directions(count))
            rank, _ = taylor_rank(family, degree)
            assert previous <= rank <= cap
            previous = rank
        assert previous == cap

    def test_gpw_rank_equals_plane_rank_random_jets(self):
        rng = np.random.default_rng(3)
        for degree in (1, 2, 3, 4):
            for _ in range(5):
                kappa_sq = random_poly(rng, 2, max(degree - 2, 0)).scaled(0.5)
                kappa_sq = kappa_sq + GradedPoly.constant(2, 6.0)
                split = make_helmholtz_split(kappa_sq, degree)
                dirs = unit_circle_directions(2 * degree + 1)
                report = rank_comparison(
                    build_family(split, dirs), plane_wave_family(split, dirs)
                )
                assert report.equal
                assert report.plane_rank == 2 * degree + 1

    def test_report_dict(self):
        split = constant_split(degree=2)
        dirs = unit_circle_directions(5)
        report = rank_comparison(
            build_family(split, dirs), plane_wave_family(split, dirs)
        )
        payload = report.to_dict()
        assert payload["equal"] is True
        assert payload["plane_rank"] == payload["gpw_rank"] == 5


class TestManufactured:
    def test_linear_phase_gives_unit_wavenumber(self):
        problem = manufactured_helmholtz(GradedPoly(2, {(1, 0): 1j}))
        assert problem.kappa_sq == GradedPoly.constant(2, 1.0)
        assert problem.solution((0.0, 0.0)) == pytest.approx(1.0)

    def test_zero_phase(self):
        problem = manufactured_helmholtz(GradedPoly.zero(2))
        assert not problem.kappa_sq
        assert problem.solution((2.0, -1.0)) == pytest.approx(1.0)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exact_residual_has_the_bits_of_two_evaluations(self, dim):
        profile = omode_kappa_sq(dim, 10.0, 2.0)
        jet = CoefficientJet.from_polynomial(profile, (0.1,) * dim)
        phi = build_family(make_helmholtz_split(jet, 5), [(1.0,) + (0.0,) * (dim - 1)])[0]
        offsets = np.random.default_rng(dim).uniform(-0.3, 0.3, (40, dim))
        symbol = helmholtz_image(phi.phase, jet.poly)
        want = symbol.evaluate_many(offsets) * np.exp(phi.phase.evaluate_many(offsets))
        got = helmholtz_residual_exact(phi, jet.poly, offsets)
        assert got.tobytes() == want.tobytes()

    def test_quadratic_phase_residual_vanishes(self):
        g = GradedPoly(2, {(1, 0): 1j, (2, 0): 0.1j})
        problem = manufactured_helmholtz(g)
        carrier = GpwFunction(
            center=(0.0, 0.0),
            phase=g,
            degree=4,
            direction=(1.0, 0.0),
            operator="manufactured",
            residual_norm=0.0,
        )
        rng = np.random.default_rng(8)
        values = helmholtz_residual_exact(carrier, problem.kappa_sq, rng.uniform(-0.8, 0.8, (100, 2)))
        assert values.shape == (100,)
        assert np.max(np.abs(values)) <= 1e-12


# -- stacked studies against the per-function loops they replace --------------


def taylor_truncation_reference(phi, bound):
    """The Taylor series of one function, one product loop per function."""
    phase = phi.phase
    constant = phase.coeffs.get((0,) * phase.dim, 0j)
    reduced = phase - GradedPoly.constant(phase.dim, constant)
    term = GradedPoly.constant(phase.dim, 1.0)
    total = term
    for m in range(1, bound + 1):
        term = term.mul_truncated(reduced, bound).scaled(1.0 / m)
        total = total + term
    return total.scaled(cmath.exp(constant))


def taylor_matrix_reference(family, bound):
    matrix = np.zeros((len(family), space_dimension(family[0].phase.dim, bound)), dtype=complex)
    for row, phi in enumerate(family):
        coefficients = taylor_truncation_reference(phi, bound).vec
        matrix[row, : len(coefficients)] = coefficients
    return matrix


def family_matrix_reference(family, points):
    """One ``values`` call, and so one Vandermonde matrix, per function."""
    points = [tuple(p) for p in points]
    return np.column_stack([phi.values(points) for phi in family])


def variable_split(kind, dim, degree=5):
    rng = np.random.default_rng(80 + dim)
    if kind == "helmholtz":
        kappa_sq = random_poly(rng, dim, degree - 2) + GradedPoly.constant(dim, 9.0)
        return make_helmholtz_split(kappa_sq, degree)
    rho = GradedPoly.constant(dim, 1.2) + GradedPoly.variable(dim, 0).scaled(0.1)
    mach = [
        GradedPoly.constant(dim, m) + GradedPoly.variable(dim, dim - 1).scaled(0.03 * (k + 1))
        for k, m in enumerate((0.3, -0.2, 0.1)[:dim])
    ]
    return make_convected_split(rho, mach, 3.0 + 0.5j, degree)


def mixed_family(kind, dim, center):
    """A built family of real directions and one evanescent direction."""
    t = 0.4
    evanescent = (math.cosh(t), 1j * math.sinh(t)) + (0.0,) * (dim - 2)
    real = unit_circle_directions(6) if dim == 2 else unit_sphere_directions(6)
    return build_family(variable_split(kind, dim), real[:3] + [evanescent] + real[3:], center)


def function_of(phase):
    dim = phase.dim
    return GpwFunction((0.0,) * dim, phase, 5, (1.0,) + (0.0,) * (dim - 1), "random", 0.0)


signed_parts = st.sampled_from([0.0, -0.0, 1.0, -0.5]) | st.floats(-2.0, 2.0)


@st.composite
def finite_phases(draw, dim):
    """Phases of degree <= 5 whose terms, the constant one included, are complex
    with signed zeros among their parts."""
    terms = draw(st.dictionaries(
        st.sampled_from(monomials_up_to(dim, 5)), st.builds(complex, signed_parts, signed_parts),
        max_size=8,
    ))
    return GradedPoly(dim, terms)


class TestStackedStudies:
    @given(st.data(), st.integers(1, 3), st.integers(0, 7))
    def test_taylor_truncation_has_the_bits_of_the_full_products(self, data, dim, bound):
        # the reference multiplies the whole phase at every step
        rows = data.draw(st.integers(1, 4))
        family = [function_of(data.draw(finite_phases(dim))) for _ in range(rows)]
        want = taylor_matrix_reference(family, bound)
        assert taylor_matrix(family, bound).tobytes() == want.tobytes()
        got = taylor_truncation(family[0], bound)
        want = taylor_truncation_reference(family[0], bound)
        assert got.cap == want.cap and got.vec.tobytes() == want.vec.tobytes()

    def test_constant_phase_row_keeps_positive_zeros(self):
        # alone, exp(2i) is a constant; in a stack of cap 1 its X coefficient is a
        # zero times exp(2i), and cos(2) < 0 would make it -0
        family = [function_of(GradedPoly(1, {(0,): 2j})), function_of(GradedPoly(1, {(1,): 1j}))]
        want = taylor_matrix_reference(family, 1)
        assert taylor_matrix(family, 1).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_taylor_truncation_differs_only_where_the_full_products_give_nan(self, bad):
        phi = function_of(GradedPoly(2, {
            (0, 0): 0.5j, (1, 0): 1.0 + 0.5j, (1, 1): 0.2, (0, 3): complex(bad, 0.3),
        }))
        with np.errstate(all="ignore"):
            got = taylor_truncation(phi, 6).vec.view(float)
            want = taylor_truncation_reference(phi, 6).vec.view(float)
        differ = (got != want) & ~(np.isnan(got) & np.isnan(want))
        assert np.isnan(want[differ]).all()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["helmholtz", "convected"])
    def test_taylor_matrix_equals_per_function_loop(self, kind, dim):
        family = mixed_family(kind, dim, (0.2,) * dim)
        for bound in (2, 5, 7):
            got = taylor_matrix(family, bound)
            assert got.tobytes() == taylor_matrix_reference(family, bound).tobytes()
        plane = plane_wave_family(variable_split(kind, dim), [phi.direction for phi in family])
        assert taylor_matrix(plane, 5).tobytes() == taylor_matrix_reference(plane, 5).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    def test_taylor_matrix_with_constant_terms_and_mixed_caps(self, dim):
        # phases with a constant term (one per-row factor each) and of different caps
        rng = np.random.default_rng(90 + dim)
        family = [
            GpwFunction((0.0,) * dim, random_poly(rng, dim, cap), 4, (1.0,) + (0.0,) * (dim - 1),
                        "random", 0.0)
            for cap in (0, 3, 1, 4, 2, 4)
        ]
        for bound in (1, 4, 6):
            got = taylor_matrix(family, bound)
            assert got.tobytes() == taylor_matrix_reference(family, bound).tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["helmholtz", "convected"])
    def test_single_truncation_is_a_stack_of_one(self, kind, dim):
        phi = mixed_family(kind, dim, (0.0,) * dim)[3]
        got = taylor_truncation(phi, 4)
        want = taylor_truncation_reference(phi, 4)
        assert got.vec.ndim == 1 and got.cap == want.cap
        assert got.vec.tobytes() == want.vec.tobytes()

    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("kind", ["helmholtz", "convected"])
    def test_family_matrix_equals_per_function_columns(self, kind, dim):
        center = (0.2,) * dim
        family = mixed_family(kind, dim, center)
        for points in (
            fit_points(dim, center, 0.3, len(family)),
            ball_points(dim, center, 0.05, len(family)),
        ):
            got = _fit_values(family[0], family, points)[0]
            assert got.tobytes() == family_matrix_reference(family, points).tobytes()

    def test_family_matrix_needs_one_center(self):
        split = constant_split(degree=2)
        family = [build_gpw(split, (1.0, 0.0)), build_gpw(split, (0.0, 1.0), center=(0.1, 0.0))]
        with pytest.raises(ValueError):
            _fit_values(family[0], family, fit_points(2, (0.0, 0.0), 0.2, 2))


class TestSampling:
    def test_fit_grid_size(self):
        pts = fit_points(2, (0.0, 0.0), 0.3, 5)
        assert len(pts) == 4 * 5 + 2 * 5 + 5 + 1
        assert max(math.hypot(*p) for p in pts) <= 0.3 + 1e-12

    def test_ball_grid_denser(self):
        fit = fit_points(2, (0.0, 0.0), 0.3, 5)
        dense = ball_points(2, (0.0, 0.0), 0.3, 5)
        assert len(dense) >= 9 * len(fit)

    @pytest.mark.parametrize("dim", [2, 3])
    def test_grids_equal_the_point_lists_they_replace(self, dim):
        center, radius, size = (0.5, -1.0, 2.0)[:dim], 0.3, 5

        def sphere(r, count, offset):
            if dim == 3:
                return [
                    tuple(c + r * d for c, d in zip(center, direction))
                    for direction in unit_sphere_directions(count)
                ]
            return [
                (
                    center[0] + r * math.cos(2.0 * math.pi * (i + offset) / count),
                    center[1] + r * math.sin(2.0 * math.pi * (i + offset) / count),
                )
                for i in range(count)
            ]

        for count, offset in ((1, 0.0), (4 * size, 0.0), (7 * size + 3, 0.37)):
            got = sphere_points(dim, center, radius, count, offset)
            assert got.tobytes() == np.array(sphere(radius, count, offset)).tobytes()
        fit = sphere(radius, 4 * size, 0.0) + sphere(2.0 * radius / 3.0, 2 * size, 0.5)
        fit += sphere(radius / 3.0, size, 0.25) + [center]
        dense = [center]
        for j in range(1, 11):
            dense += sphere(radius * j / 10, 7 * size + 3, 0.37)
        for got, want in ((fit_points(dim, center, radius, size), fit),
                          (ball_points(dim, center, radius, size), dense)):
            assert got.shape == (len(want), dim)
            assert got.tobytes() == np.array(want, dtype=float).tobytes()

    def test_cached_directions_are_read_only_and_shared(self):
        first = approx._unit_directions(2, 9, 0.37)
        assert first is approx._unit_directions(2, 9, 0.37)
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1.0
        points = sphere_points(2, (0.0, 0.0), 1.0, 9, 0.37)
        points[0, 0] = 5.0  # a fresh array: the cache is untouched
        assert approx._unit_directions(2, 9, 0.37)[0, 0] != 5.0


class TestFamilyFit:
    def test_family_member_recovered(self):
        split = constant_split(degree=2)
        family = build_family(split, unit_circle_directions(6))
        result = family_fit_error(family[3], family, 0.25)
        assert result.error <= 1e-12

    def test_outside_plane_wave_error_decays(self):
        split = constant_split(kappa0_sq=9.0, degree=2)
        family = plane_wave_family(split, unit_circle_directions(5))
        target = plane_wave(2, 3.0, (math.cos(0.3), math.sin(0.3)), 2)
        coarse = family_fit_error(target, family, 0.2).error
        fine = family_fit_error(target, family, 0.1).error
        assert 0 < fine < coarse

    def test_enlarging_family_never_hurts(self):
        rng = np.random.default_rng(12)
        problem = manufactured_helmholtz(smooth_phase(rng))
        split = make_helmholtz_split(problem.jet, 2)
        small = build_family(split, unit_circle_directions(5))
        large = build_family(split, unit_circle_directions(8))
        e_small = family_fit_error(problem.solution, small, 0.2).error
        e_large = family_fit_error(problem.solution, large, 0.2).error
        assert e_large <= e_small + 1e-12

    def test_duplicated_family_reports_degenerate(self):
        split = constant_split(degree=2)
        phi = build_gpw(split, (1.0, 0.0))
        result = family_fit_error(phi, [phi] * 5, 0.2)
        assert result.degenerate
        assert result.fit_rank == 1
        assert result.error <= 1e-12

    def test_bad_inputs_rejected(self):
        split = constant_split(degree=2)
        phi = build_gpw(split, (1.0, 0.0))
        with pytest.raises(ValueError):
            family_fit_error(phi, [], 0.2)
        with pytest.raises(ValueError):
            family_fit_error(phi, [phi], 0.0)

    @pytest.mark.parametrize("cap", [3, 7])
    @pytest.mark.parametrize("dim", [2, 3])
    def test_shared_evaluation_has_the_bits_of_two_evaluations(self, dim, cap):
        center = (0.1, -0.2, 0.3)[:dim]
        family = mixed_family("helmholtz", dim, center)
        solution = ExpPhase(center, random_poly(np.random.default_rng(40 + cap), dim, cap))
        for points in (fit_points(dim, center, 0.3, len(family)),
                       ball_points(dim, center, 0.3, len(family))):
            matrix, values = _fit_values(solution, family, points)
            assert matrix.tobytes() == family_matrix_reference(family, points).tobytes()
            assert values.tobytes() == solution.values(points).tobytes()

    @pytest.mark.parametrize("center", [(0.1, -0.2), (0.0, 0.0)])
    def test_shared_fit_equals_the_sampled_fit(self, center):
        class Sampled:
            """Not an ExpPhase, so the fit samples it through ``values``."""

            def __init__(self, solution):
                self.values = solution.values

        family = mixed_family("helmholtz", 2, (0.1, -0.2))
        solution = ExpPhase(center, smooth_phase(np.random.default_rng(9)))
        for radius in (0.4, 0.05):
            shared = family_fit_error(solution, family, radius)
            assert shared == family_fit_error(Sampled(solution), family, radius)


class TestConvergence:
    def test_manufactured_first_order_family(self):
        rng = np.random.default_rng(2)
        problem = manufactured_helmholtz(smooth_phase(rng))
        split = make_helmholtz_split(problem.jet, 1)
        family = build_family(split, unit_circle_directions(3))
        report = convergence_study(problem.solution, family, RADII)
        assert report.slope >= 1.75
        assert report.passed and not report.exact

    def test_family_member_flags_exact(self):
        split = constant_split(degree=2)
        family = build_family(split, unit_circle_directions(5))
        report = convergence_study(family[0], family, RADII)
        assert report.exact and report.passed
        assert math.isnan(report.slope)

    def test_requires_four_decreasing_radii(self):
        split = constant_split(degree=2)
        family = build_family(split, unit_circle_directions(5))
        with pytest.raises(ValueError):
            convergence_study(family[0], family, (0.4, 0.2, 0.1))
        with pytest.raises(ValueError):
            convergence_study(family[0], family, (0.4, 0.2, 0.2, 0.1))

    def test_csv_rows_align(self):
        split = constant_split(degree=2)
        family = build_family(split, unit_circle_directions(5))
        report = convergence_study(family[0], family, RADII)
        rows = report.csv_rows()
        assert len(rows) == 4
        assert rows[0][2] is None


class TestResidualOrder:
    def test_omode_fourth_degree(self):
        profile = omode_kappa_sq(2, 10.0, 2.0)
        jet = CoefficientJet.from_polynomial(profile, (0.0, 0.0))
        split = make_helmholtz_split(jet, 4)
        phi = build_gpw(split, (math.cos(0.7), math.sin(0.7)))
        report = residual_order_study(phi, jet.poly, RADII)
        assert report.slope >= 4 - 1 - 0.25
        assert report.passed

    def test_manufactured_third_degree(self):
        rng = np.random.default_rng(5)
        problem = manufactured_helmholtz(smooth_phase(rng))
        split = make_helmholtz_split(problem.jet, 3)
        phi = build_gpw(split, (1.0, 0.0))
        report = residual_order_study(phi, problem.kappa_sq, RADII)
        assert report.slope >= 3 - 1 - 0.25

    def test_constant_wavenumber_is_exact(self):
        split = constant_split(kappa0_sq=9.0, degree=4)
        phi = build_gpw(split, (0.0, 1.0))
        report = residual_order_study(phi, GradedPoly.constant(2, 9.0), RADII)
        assert report.exact and report.passed

    def test_finite_difference_route_agrees(self):
        profile = omode_kappa_sq(2, 10.0, 2.0)
        jet = CoefficientJet.from_polynomial(profile, (0.0, 0.0))
        split = make_helmholtz_split(jet, 3)
        phi = build_gpw(split, (1.0, 0.0))
        exact = residual_order_study(phi, jet.poly, RADII)
        fd = residual_order_study(phi, profile.evaluate, RADII)
        for (_, a), (_, b) in zip(exact.entries, fd.entries):
            assert b == pytest.approx(a, rel=1e-3)

    def test_fd_step_guard(self):
        split = constant_split(degree=3)
        phi = build_gpw(split, (1.0, 0.0))
        (value,) = helmholtz_residual_fd(phi, lambda _x: 9.0, np.array([[0.01, 0.0]]), 1e-30)
        assert abs(value) < 1.0  # clamped step keeps the difference quotient sane


class TestDecayReport:
    def test_to_dict_roundtrip_fields(self):
        report = DecayReport(
            label="x",
            degree=2,
            expected_order=3.0,
            entries=((0.4, 1e-2), (0.2, 1.2e-3)),
            pair_slopes=(3.06,),
            slope=3.06,
            threshold=2.75,
            exact=False,
            monotone=True,
            metadata={"seed": 1},
        )
        payload = report.to_dict()
        assert payload["passed"] is True
        assert payload["metadata"] == {"seed": 1}
