from dataclasses import replace

import numpy as np
import pytest

from gpwlab.frame import (
    FreeParameters,
    SplitCheck,
    SplitContractError,
    SplitReport,
    corrupted,
    preimage,
    random_homogeneous,
    random_poly,
    right_inverse,
    verify_split,
)
from gpwlab.layers import PrincipalPart2, kernel_dimension
from gpwlab.operators import CoefficientJet, make_convected_split, make_helmholtz_split
from gpwlab.polycore import GradedPoly, HomogeneousPoly


def constant_split(kappa0_sq=25.0, degree=2, dim=2):
    return make_helmholtz_split(GradedPoly.constant(dim, kappa0_sq), degree)


def linear_phase(dim, kappa, direction):
    coeffs = {
        tuple(1 if i == axis else 0 for i in range(dim)): 1j * kappa * c
        for axis, c in enumerate(direction)
        if c != 0
    }
    return GradedPoly(dim, coeffs)


def random_params(rng, split, base_degree=None):
    base = random_poly(rng, split.dim, split.order - 1 if base_degree is None else base_degree)
    free = []
    for n in range(split.layer_count):
        coeffs = {j: complex(*rng.uniform(-1, 1, 2)) for j in split.free_monomials(n)}
        free.append(HomogeneousPoly(split.dim, n + split.order, coeffs))
    return FreeParameters(base, tuple(free))


class TestPreimage:
    def test_constant_wavenumber_needs_no_corrections(self):
        # dispersion-matched linear base already satisfies the layer-0 equation
        split = constant_split(kappa0_sq=25.0, degree=2)
        base = linear_phase(2, 5.0, (0.6, 0.8))
        x = preimage(split, split.rhs, FreeParameters(base, FreeParameters.zeros(split).free))
        assert (x - base).max_abs() <= 1e-13 * 25.0

    def test_linear_wavenumber_square_hand_solution(self):
        a, b = 0.8, -0.5
        kappa_sq = GradedPoly(2, {(0, 0): 9.0, (1, 0): a, (0, 1): b})
        split = make_helmholtz_split(kappa_sq, 3)
        base = linear_phase(2, 3.0, (1.0, 0.0))
        x = preimage(split, split.rhs, FreeParameters(base, FreeParameters.zeros(split).free))
        expected = base + GradedPoly(2, {(3, 0): -a / 6.0, (2, 1): -b / 2.0})
        assert (x - expected).max_abs() <= 1e-13 * 9.0

    def test_zero_everything(self):
        split = constant_split(kappa0_sq=0.0, degree=4)
        x = preimage(split, GradedPoly.zero(2))
        assert not x

    def test_target_too_deep_rejected(self):
        split = constant_split(degree=3)
        with pytest.raises(SplitContractError):
            preimage(split, GradedPoly(2, {(2, 0): 1.0}))

    def test_free_support_validated(self):
        split = constant_split(degree=3)
        bad = FreeParameters(
            GradedPoly.zero(2),
            (
                HomogeneousPoly(2, 2, {(2, 0): 1.0}),  # solvable monomial, not free
                HomogeneousPoly.zero(2, 3),
            ),
        )
        with pytest.raises(SplitContractError):
            bad.validate(split)

    def test_base_degree_validated(self):
        split = constant_split(degree=3)
        bad = FreeParameters(GradedPoly(2, {(2, 0): 1.0}), FreeParameters.zeros(split).free)
        with pytest.raises(SplitContractError):
            preimage(split, split.rhs, bad)


class TestRightInverseProperty:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_apply_recovers_target(self, dim):
        # 100 seeded targets per dimension, random free parameters each time
        rng = np.random.default_rng(2024)
        for degree in range(2, 7):
            kappa_sq = random_poly(rng, dim, degree - 2) + GradedPoly.constant(dim, 6.0)
            split = make_helmholtz_split(kappa_sq, degree)
            for _ in range(20):
                target = random_poly(rng, dim, split.last_layer)
                x = preimage(split, target, random_params(rng, split))
                back = split.apply(x)
                scale = max(1.0, target.max_abs(), back.max_abs())
                assert (back - target).max_abs() <= 1e-12 * scale

    def test_series_route_matches_layer_route(self):
        rng = np.random.default_rng(55)
        for degree in (2, 4, 6):
            split = make_helmholtz_split(
                random_poly(rng, 2, degree - 2) + GradedPoly.constant(2, 4.0), degree
            )
            for _ in range(10):
                target = random_poly(rng, 2, split.last_layer)
                a = preimage(split, target)
                b = right_inverse(split, target)
                assert (a - b).max_abs() <= 1e-12 * max(1.0, a.max_abs())

    def test_zero_target(self):
        split = constant_split(degree=5)
        assert not right_inverse(split, GradedPoly.zero(2))

    def test_top_layer_target_needs_single_solve(self):
        # the remainder annihilates top-layer preimages, so the series stops at once
        rng = np.random.default_rng(8)
        split = constant_split(degree=5)
        top = random_homogeneous(rng, 2, split.last_layer).as_graded()
        got = right_inverse(split, top)
        assert (got - split.solve_all(top)).max_abs() == 0.0


class TestNilpotency:
    def test_exact_annihilation(self):
        rng = np.random.default_rng(17)
        split = make_helmholtz_split(
            random_poly(rng, 2, 3) + GradedPoly.constant(2, 9.0), 5
        )
        for _ in range(50):
            y = random_poly(rng, 2, split.last_layer)
            scale = y.max_abs()
            if scale:
                y = y.scaled(1.0 / scale)
            for _ in range(split.layer_count):
                y = split.remainder(split.solve_all(y.truncate(split.last_layer)))
            assert y.max_abs() <= 1e-13


class TestFreeParameterInjectivity:
    def test_base_and_free_recoverable_from_output(self):
        rng = np.random.default_rng(31)
        split = make_helmholtz_split(
            random_poly(rng, 2, 2) + GradedPoly.constant(2, 5.0), 4
        )
        params = random_params(rng, split)
        x = preimage(split, split.rhs, params)
        assert x.truncate(split.order - 1) == params.base
        for n in range(split.layer_count):
            layer = x.layer(n + split.order)
            free_set = set(split.free_monomials(n))
            recovered = {j: c for j, c in layer.coeffs.items() if j in free_set}
            assert recovered == dict(params.free[n].coeffs)

    def test_distinct_parameters_distinct_outputs(self):
        rng = np.random.default_rng(13)
        split = constant_split(degree=4)
        a = random_params(rng, split)
        b = random_params(rng, split)
        xa = preimage(split, split.rhs, a)
        xb = preimage(split, split.rhs, b)
        assert (xa - xb).max_abs() > 1e-6


def verify_split_reference(split, trials=50, seed=0, tolerance=1e-12, nilpotency_tolerance=1e-13):
    """verify_split as a loop over trials, one polynomial at a time: the stacked one's oracle.

    Besides each check's worst violation it keeps the trial and layer of the
    first worst one, layer before trial, as the stacked one names them.
    """
    rng = np.random.default_rng(seed)
    s = split.last_layer
    top = split.source_degree
    violations = {
        "principal_linear": 0.0,
        "principal_layer_map": 0.0,
        "principal_right_inverse": 0.0,
        "principal_kills_low_degree": 0.0,
        "remainder_degree_shift": 0.0,
        "remainder_top_zero": 0.0,
        "remainder_nilpotent": 0.0,
        "remainder_prefix_local": 0.0,
    }

    where = dict.fromkeys(violations, (None, None))

    def rel(deviation, scale):
        return deviation / max(scale, 1.0)

    def note(check, value, layer=None):
        def order(trial, layer):
            return (-1 if layer is None else layer, trial)

        value = float(value)
        if value > violations[check] or (
            value == violations[check] > 0 and order(trial, layer) < order(*where[check])
        ):
            violations[check] = value
            where[check] = (trial, layer)

    for trial in range(trials):
        p = random_poly(rng, split.dim, top)
        q = random_poly(rng, split.dim, top)
        alpha = complex(*rng.uniform(-1.0, 1.0, 2))
        lhs = split.principal(p + q.scaled(alpha))
        rhs = split.principal(p) + split.principal(q).scaled(alpha)
        note("principal_linear", rel((lhs - rhs).max_abs(), max(lhs.max_abs(), rhs.max_abs())))
        for n in range(split.layer_count):
            h = random_homogeneous(rng, split.dim, n + split.order)
            image = split.principal(h.as_graded())
            off_layer = image - image.layer(n).as_graded()
            note("principal_layer_map", rel(off_layer.max_abs(), image.max_abs()), n)
            b = random_homogeneous(rng, split.dim, n)
            back = split.principal(split.solve_layer(n, b).as_graded()).layer(n)
            note("principal_right_inverse", rel((back - b).max_abs(), b.max_abs()), n)
        low = random_poly(rng, split.dim, split.order - 1)
        note("principal_kills_low_degree", rel(split.principal(low).max_abs(), low.max_abs()))
        for n in range(split.layer_count - 1):
            poly = random_poly(rng, split.dim, top, min_degree=n + split.order)
            image = split.remainder(poly)
            note(
                "remainder_degree_shift",
                rel(image.truncate(n).max_abs(), max(image.max_abs(), poly.max_abs())),
                n,
            )
        if split.layer_count > 0:
            top_input = random_homogeneous(rng, split.dim, top).as_graded()
            note(
                "remainder_top_zero",
                rel(split.remainder(top_input).max_abs(), top_input.max_abs()),
            )
            y = random_poly(rng, split.dim, s)
            scale = y.max_abs()
            if scale > 0:
                y = y.scaled(1.0 / scale)
            for _ in range(split.layer_count):
                y = split.remainder(split.solve_all(y.truncate(s)))
            note("remainder_nilpotent", y.max_abs())
        base = random_poly(rng, split.dim, split.order - 1)
        pieces = [
            random_homogeneous(rng, split.dim, n + split.order).as_graded()
            for n in range(split.layer_count)
        ]
        full = base
        for piece in pieces:
            full = full + piece
        image_full = split.remainder(full)
        prefix = base
        for n in range(split.layer_count):
            gap = image_full.layer(n) - split.remainder(prefix).layer(n)
            note(
                "remainder_prefix_local",
                rel(gap.max_abs(), max(image_full.max_abs(), full.max_abs())),
                n,
            )
            prefix = prefix + pieces[n]
    checks = []
    for name, worst in violations.items():
        tol = nilpotency_tolerance if name == "remainder_nilpotent" else tolerance
        checks.append(SplitCheck(name, trials, worst, tol, worst <= tol, *where[name]))
    return SplitReport(split.label, seed, trials, tuple(checks))


def variable_helmholtz(dim, degree, seed):
    rng = np.random.default_rng(seed)
    kappa_sq = random_poly(rng, dim, degree - 2).scaled(0.5) + GradedPoly.constant(dim, 9.0)
    return make_helmholtz_split(kappa_sq, degree)


def variable_convected(dim, degree, seed):
    rng = np.random.default_rng(seed)
    rho = random_poly(rng, dim, degree - 2).scaled(0.1) + GradedPoly.constant(dim, 1.0)
    mach = [
        CoefficientJet(random_poly(rng, dim, degree - 2).scaled(0.05) + GradedPoly.constant(dim, m))
        for m in (0.3, -0.2, 0.1)[:dim]
    ]
    return make_convected_split(CoefficientJet(rho), mach, 3.0 + 0.4j, degree)


def nan_remainder(split):
    """Split whose remainder returns all-NaN polynomials of the right shape."""
    return replace(split, remainder=lambda poly: split.remainder(poly).scaled(float("nan")))


class TestStackedVerifyMatchesReference:
    SPLITS = {
        "helmholtz-2d": lambda: variable_helmholtz(2, 6, 11),
        "helmholtz-3d": lambda: variable_helmholtz(3, 5, 12),
        "convected-2d": lambda: variable_convected(2, 6, 15),
        "convected-3d": lambda: variable_convected(3, 5, 13),
        "corrupted": lambda: corrupted(variable_convected(3, 4, 14)),
        "no-layers": lambda: make_helmholtz_split(GradedPoly.constant(2, 4.0), 1),
        # shift draws nothing, tail still draws its two inputs
        "one-layer": lambda: make_helmholtz_split(GradedPoly.constant(3, 4.0), 2),
    }

    @pytest.mark.parametrize("trials", [1, 7, 50])
    @pytest.mark.parametrize("name", sorted(SPLITS))
    def test_report_equals_per_trial_loop(self, name, trials):
        split = self.SPLITS[name]()
        got = verify_split(split, trials=trials, seed=2024).to_dict()
        assert got == verify_split_reference(split, trials=trials, seed=2024).to_dict()


    @pytest.mark.parametrize("name", sorted(SPLITS))
    def test_worst_trial_and_layer_equal_per_trial_loop(self, name):
        split = self.SPLITS[name]()
        got = verify_split(split, trials=7, seed=2024).checks
        assert got == verify_split_reference(split, trials=7, seed=2024).checks


class TestVerifySplit:
    def test_helmholtz_passes(self):
        rng = np.random.default_rng(77)
        split = make_helmholtz_split(
            random_poly(rng, 2, 2) + GradedPoly.constant(2, 4.0), 4
        )
        report = verify_split(split, trials=20, seed=5)
        assert report.passed
        assert {c.check for c in report.checks} == {
            "principal_linear",
            "principal_layer_map",
            "principal_right_inverse",
            "principal_kills_low_degree",
            "remainder_degree_shift",
            "remainder_top_zero",
            "remainder_nilpotent",
            "remainder_prefix_local",
        }

    def test_corrupted_split_fails_degree_shift(self):
        report = verify_split(corrupted(constant_split(degree=4)), trials=5, seed=5)
        by_name = {c.check: c for c in report.checks}
        assert not by_name["remainder_degree_shift"].passed
        assert not report.passed

    def test_single_trial_allowed(self):
        assert verify_split(constant_split(degree=3), trials=1, seed=0).passed

    def test_no_layers_is_vacuous_pass(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 4.0), 1)
        assert split.layer_count == 0
        assert verify_split(split, trials=3, seed=0).passed

    def test_nan_remainder_fails_the_remainder_checks(self):
        report = verify_split(nan_remainder(variable_helmholtz(2, 4, 3)), trials=5, seed=1)
        by_name = {c.check: c for c in report.checks}
        assert not report.passed
        for name, check in by_name.items():
            assert check.passed == name.startswith("principal_"), name
            if name.startswith("remainder_"):
                assert np.isnan(check.max_violation)

    def test_trials_must_be_positive(self):
        with pytest.raises(ValueError):
            verify_split(constant_split(), trials=0)

    def test_report_serializes(self):
        report = verify_split(constant_split(degree=3), trials=2, seed=9)
        payload = report.to_dict()
        assert payload["seed"] == 9
        assert payload["passed"] is True
        assert len(payload["checks"]) == 8


class TestDegreesOfFreedom:
    def test_free_count_matches_kernel_oracle_2d(self):
        part = PrincipalPart2.laplace(2)
        for degree in range(2, 7):
            split = constant_split(degree=degree)
            assert split.free_parameter_count() == 2 * degree + 1
            assert split.free_parameter_count() == kernel_dimension(part, degree)

    def test_free_count_matches_kernel_oracle_3d(self):
        part = PrincipalPart2.laplace(3)
        for degree in range(2, 5):
            split = constant_split(degree=degree, dim=3)
            assert split.free_parameter_count() == (degree + 1) ** 2
            assert split.free_parameter_count() == kernel_dimension(part, degree)
