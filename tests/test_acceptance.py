"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance is pinned here, nothing is deferred to later
calibration.
"""
import json
import math
import time

import numpy as np

from gpwlab.approx import (
    convergence_study,
    manufactured_helmholtz,
    rank_comparison,
    residual_order_study,
    taylor_rank,
)
from gpwlab.basis import (
    build_family,
    build_gpw,
    linear_phase,
    plane_wave_family,
    unit_circle_directions,
    unit_sphere_directions,
)
from gpwlab.cli import main
from gpwlab.frame import preimage, random_poly, right_inverse, verify_split
from gpwlab.layers import PrincipalPart2, kernel_dimension
from gpwlab.operators import (
    CoefficientJet,
    helmholtz_image,
    make_convected_split,
    make_helmholtz_split,
    omode_kappa_sq,
)
from gpwlab.polycore import GradedPoly, monomials_of_degree

RADII = (0.4, 0.2, 0.1, 0.05)


def report(number: int, description: str, passed: bool) -> None:
    print(f"criterion {number} {'PASS' if passed else 'FAIL'}: {description}")
    assert passed, f"criterion {number} failed: {description}"


def smooth_kappa_sq(rng, dim, top_degree, floor=6.0):
    return random_poly(rng, dim, top_degree).scaled(0.5) + GradedPoly.constant(dim, floor)


def oscillatory_phase(rng, top_degree=3):
    angle = rng.uniform(0, 2 * math.pi)
    base = rng.uniform(1.5, 2.5)
    coeffs = {(1, 0): 1j * base * math.cos(angle), (0, 1): 1j * base * math.sin(angle)}
    for n in range(2, top_degree + 1):
        for index in monomials_of_degree(2, n):
            re, im = rng.uniform(-0.3, 0.3, 2)
            coeffs[index] = complex(re, im)
    return GradedPoly(2, coeffs)


def test_criterion_1_quasi_trefftz_certificate():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    for dim in (2, 3):
        some_directions = (
            unit_circle_directions(3) if dim == 2 else unit_sphere_directions(3)
        )
        for degree in range(2, 7):
            for _ in range(10):
                kappa_sq = smooth_kappa_sq(rng, dim, degree - 2)
                split = make_helmholtz_split(kappa_sq, degree)
                for direction in some_directions:
                    phi = build_gpw(split, direction, tol=1e-11)
                    # independent oracle: direct truncated-operator assembly
                    image = helmholtz_image(phi.phase, kappa_sq, degree - 2)
                    scale = max(1.0, kappa_sq.max_abs(), image.max_abs())
                    worst = max(worst, phi.residual_norm, image.max_abs() / scale)
    elapsed = time.perf_counter() - started
    report(
        1,
        f"all built functions certify at 1e-11 (worst {worst:.2e}, {elapsed:.1f}s < 10s)",
        worst <= 1e-11 and elapsed < 10.0,
    )


def test_criterion_2_framework_hypotheses():
    rng = np.random.default_rng(202)
    failures = []
    for dim in (2, 3):
        for degree in range(2, 7):
            split = make_helmholtz_split(smooth_kappa_sq(rng, dim, degree - 2), degree)
            if not verify_split(split, trials=50, seed=2024).passed:
                failures.append(("helmholtz", dim, degree))
        for degree in range(2, 5):
            rho = CoefficientJet(
                random_poly(rng, dim, degree - 2).scaled(0.1)
                + GradedPoly.constant(dim, 1.0)
            )
            mach = [
                CoefficientJet(
                    random_poly(rng, dim, degree - 2).scaled(0.05)
                    + GradedPoly.constant(dim, component)
                )
                for component in (0.3, -0.2, 0.1)[:dim]
            ]
            split = make_convected_split(rho, mach, 3.0, degree)
            if not verify_split(split, trials=50, seed=2024).passed:
                failures.append(("convected", dim, degree))
    report(
        2,
        f"split hypotheses hold on 50 seeded trials (failures: {failures or 'none'})",
        not failures,
    )


def test_criterion_3_oracle_equivalence():
    rng = np.random.default_rng(303)
    worst = 0.0
    count = 0
    while count < 200:
        dim = 2 if count % 2 == 0 else 3
        degree = 2 + count % 5
        split = make_helmholtz_split(smooth_kappa_sq(rng, dim, degree - 2), degree)
        target = random_poly(rng, dim, split.last_layer)
        layered = preimage(split, target)
        swept = right_inverse(split, target)
        worst = max(worst, (layered - swept).max_abs() / max(1.0, layered.max_abs()))
        count += 1
    report(
        3,
        f"layer route equals sweep route on 200 targets (worst {worst:.2e} <= 1e-12)",
        worst <= 1e-12,
    )


def test_criterion_4_dimension_claims():
    rng = np.random.default_rng(404)
    ok = True
    notes = []
    for degree in (1, 2, 3, 4):
        cap = 2 * degree + 1
        split = make_helmholtz_split(GradedPoly.constant(2, 9.0), degree)
        for count in (cap, 2 * cap):
            family = plane_wave_family(split, unit_circle_directions(count))
            rank, _ = taylor_rank(family, degree, tol=1e-10)
            ok &= rank == cap
            notes.append(f"2d p={degree} L={count}: {rank}")
        varying = make_helmholtz_split(smooth_kappa_sq(rng, 2, max(degree - 2, 0)), degree)
        dirs = unit_circle_directions(cap)
        comparison = rank_comparison(
            build_family(varying, dirs), plane_wave_family(varying, dirs)
        )
        ok &= comparison.equal and comparison.plane_rank == cap
    split3 = make_helmholtz_split(GradedPoly.constant(3, 9.0), 2)
    family3 = plane_wave_family(split3, unit_sphere_directions(9))
    rank3, _ = taylor_rank(family3, 2, tol=1e-10)
    ok &= rank3 == 9
    notes.append(f"3d p=2 L=9: {rank3}")
    varying3 = make_helmholtz_split(smooth_kappa_sq(rng, 3, 0), 2)
    dirs3 = unit_sphere_directions(9)
    comparison3 = rank_comparison(
        build_family(varying3, dirs3), plane_wave_family(varying3, dirs3)
    )
    ok &= comparison3.equal and comparison3.gpw_rank == 9
    report(4, "; ".join(notes) + "; generalized ranks match plane ranks", ok)


def test_criterion_5_degrees_of_freedom():
    part = PrincipalPart2.laplace(2)
    ok = True
    counts = []
    for degree in range(2, 7):
        split = make_helmholtz_split(GradedPoly.constant(2, 4.0), degree)
        construction = split.free_parameter_count()
        oracle = kernel_dimension(part, degree, tol=1e-10)
        ok &= construction == oracle == 2 * degree + 1
        counts.append(f"p={degree}: {construction}")
    report(5, "free parameters match the null-space oracle (" + ", ".join(counts) + ")", ok)


def test_criterion_6_approximation_order():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    slopes = []
    for degree in (1, 2, 3):
        for _ in range(3):
            problem = manufactured_helmholtz(oscillatory_phase(rng))
            split = make_helmholtz_split(problem.jet, degree)
            family = build_family(split, unit_circle_directions(2 * degree + 1))
            study = convergence_study(problem.solution, family, RADII)
            ok &= study.passed and study.slope >= degree + 1 - 0.25
            slopes.append(f"p={degree}: {study.slope:.2f}")
    elapsed = time.perf_counter() - started
    ok &= elapsed < 60.0
    report(
        6,
        f"best-approximation slopes reach p+1-0.25 ({'; '.join(slopes)}; {elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_7_residual_order():
    rng = np.random.default_rng(707)
    ok = True
    slopes = []
    omode = omode_kappa_sq(2, 10.0, 2.0)
    omode_jet = CoefficientJet.from_polynomial(omode, (0.0, 0.0))
    manufactured = manufactured_helmholtz(oscillatory_phase(rng))
    for degree in (3, 4):
        for label, jet, coefficient in (
            ("omode", omode_jet, omode_jet.poly),
            ("manufactured", manufactured.jet, manufactured.kappa_sq),
        ):
            split = make_helmholtz_split(jet, degree)
            phi = build_gpw(split, (math.cos(0.5), math.sin(0.5)))
            study = residual_order_study(phi, coefficient, RADII)
            ok &= study.passed and study.slope >= degree - 1 - 0.25
            slopes.append(f"{label} p={degree}: {study.slope:.2f}")
    report(7, "operator residual decays at order p-1 (" + "; ".join(slopes) + ")", ok)


def test_criterion_8_constant_coefficient_reduction():
    worst_phase = 0.0
    for dim in (2, 3):
        split = make_helmholtz_split(GradedPoly.constant(dim, 25.0), 5)
        some_directions = (
            unit_circle_directions(6) if dim == 2 else unit_sphere_directions(6)
        )
        for direction in some_directions:
            phi = build_gpw(split, direction)
            expected = linear_phase(dim, 5.0, direction)
            worst_phase = max(worst_phase, (phi.phase - expected).max_abs())
    rho0, mach0, kappa = 1.2, (0.3, -0.2), 4.0
    convected = make_convected_split(
        CoefficientJet.constant(2, rho0),
        [CoefficientJet.constant(2, component) for component in mach0],
        kappa,
        4,
    )
    from gpwlab.operators import convected_residual_at

    rng = np.random.default_rng(808)
    worst_residual = 0.0
    for direction in unit_circle_directions(4):
        phi = build_gpw(convected, direction)
        points = rng.uniform(-0.5, 0.5, (25, 2))
        values = convected_residual_at(phi.phase, rho0, mach0, kappa, points)
        worst_residual = max(worst_residual, float(np.abs(values).max()))
    report(
        8,
        f"constant-coefficient phases are plane waves (worst {worst_phase:.2e} <= 1e-13); "
        f"convected residual {worst_residual:.2e} <= 1e-10 at 100 points",
        worst_phase <= 1e-13 and worst_residual <= 1e-10,
    )


def test_criterion_9_determinism(tmp_path):
    config = {
        "schema": "gpw-run/1",
        "dimension": 2,
        "degree": 3,
        "center": [0.1, -0.2],
        "directions": 7,
        "h_values": [0.4, 0.2, 0.1, 0.05],
        "seed": 909090,
        "operator": {
            "type": "helmholtz",
            "preset": "manufactured",
            "phase": [
                {"exponents": [1, 0], "re": 0.0, "im": 1.7},
                {"exponents": [0, 1], "re": 0.0, "im": 1.1},
                {"exponents": [2, 0], "re": 0.08, "im": 0.03},
            ],
        },
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    artifacts = ("basis.json", "report.json", "rank.json", "convergence.json", "convergence.csv")
    for out in ("a", "b"):
        out_dir = tmp_path / out
        for command in ("build", "verify", "rank", "converge"):
            code = main(
                [command, "--config", str(config_path), "--out", str(out_dir), "--quiet"]
            )
            assert code == 0, f"{command} exited {code}"
    identical = all(
        (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        for name in artifacts
    )
    report(9, f"two seeded runs produced byte-identical {len(artifacts)} artifacts", identical)
