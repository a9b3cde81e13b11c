import cmath
import json
import math
import re
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpwlab.basis import (
    CertificateError,
    GpwFunction,
    build_family,
    build_gpw,
    certificate_norm,
    directions,
    family_from_records,
    family_text,
    family_to_records,
    linear_phase,
    plane_wave,
    plane_wave_family,
    unit_circle_directions,
    unit_sphere_directions,
)
from gpwlab.frame import corrupted, random_poly
from gpwlab.operators import make_convected_split, make_helmholtz_split
from gpwlab.polycore import GradedPoly, space_dimension
from gpwlab.serialize import json_text


def constant_split(kappa0_sq=25.0, degree=3, dim=2):
    return make_helmholtz_split(GradedPoly.constant(dim, kappa0_sq), degree)


class TestCircleDirections:
    def test_four_cardinal(self):
        got = unit_circle_directions(4)
        expected = [(1, 0), (0, 1), (-1, 0), (0, -1)]
        for g, e in zip(got, expected):
            assert g == pytest.approx(e, abs=1e-15)

    def test_single(self):
        assert unit_circle_directions(1) == [(1.0, 0.0)]

    def test_distinct_unit(self):
        got = unit_circle_directions(5)
        assert len(set(got)) == 5
        for d in got:
            assert math.hypot(*d) == pytest.approx(1.0, abs=1e-15)

    def test_needs_positive_count(self):
        with pytest.raises(ValueError):
            unit_circle_directions(0)

    @pytest.mark.parametrize("offset", [0.0, 0.25, 0.37, 0.5])
    def test_offset_turns_the_circle_bit_for_bit(self, offset):
        for count in (1, 5, 28):
            angles = [2.0 * math.pi * (i + offset) / count for i in range(count)]
            want = [(math.cos(a), math.sin(a)) for a in angles]
            assert unit_circle_directions(count, offset) == want
            assert directions(2, count, offset) == want
        steps = [2.0 * math.pi * i / 7 for i in range(7)]
        assert unit_circle_directions(7) == [(math.cos(a), math.sin(a)) for a in steps]
        assert directions(3, 9, offset) == unit_sphere_directions(9)


class TestSphereDirections:
    def test_single_is_north_pole(self):
        assert unit_sphere_directions(1) == [(0.0, 0.0, 1.0)]

    def test_two_are_antipodal(self):
        a, b = unit_sphere_directions(2)
        assert a == pytest.approx((0.0, 0.0, 1.0))
        assert b == pytest.approx((0.0, 0.0, -1.0))

    def test_nine_distinct_unit(self):
        got = unit_sphere_directions(9)
        assert len(set(got)) == 9
        for d in got:
            assert math.sqrt(sum(c * c for c in d)) == pytest.approx(1.0, abs=1e-14)


class TestBuild:
    def test_constant_wavenumber_is_plane_wave(self):
        split = constant_split(kappa0_sq=25.0, degree=4)
        phi = build_gpw(split, (0.6, 0.8))
        expected = linear_phase(2, 5.0, (0.6, 0.8))
        assert (phi.phase - expected).max_abs() <= 1e-13

    def test_affine_wavenumber_hand_solution(self):
        a, b = 0.4, 1.1
        split = make_helmholtz_split(GradedPoly(2, {(0, 0): 16.0, (1, 0): a, (0, 1): b}), 3)
        phi = build_gpw(split, (0.0, 1.0))
        expected = linear_phase(2, 4.0, (0.0, 1.0)) + GradedPoly(
            2, {(3, 0): -a / 6.0, (2, 1): -b / 2.0}
        )
        assert (phi.phase - expected).max_abs() <= 1e-13 * 16.0

    def test_value_one_at_center(self):
        split = constant_split()
        phi = build_gpw(split, (1.0, 0.0), center=(0.4, -0.2))
        assert phi((0.4, -0.2)) == pytest.approx(1.0)

    def test_non_unit_direction_rejected(self):
        with pytest.raises(ValueError):
            build_gpw(constant_split(), (1.0, 1.0))

    def test_certificate_failure_aborts(self):
        with pytest.raises(CertificateError):
            build_gpw(corrupted(constant_split(degree=4)), (0.6, 0.8))

    def test_degree_one_family_is_plane_waves(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 9.0), 1)
        phi = build_gpw(split, (0.6, 0.8))
        assert (phi.phase - linear_phase(2, 3.0, (0.6, 0.8))).max_abs() == 0.0


class TestEvaluate:
    def test_one_radian_along_direction(self):
        split = constant_split(kappa0_sq=25.0, degree=2)
        direction = (0.6, 0.8)
        phi = build_gpw(split, direction)
        point = tuple(c / 5.0 for c in direction)
        assert phi(point) == pytest.approx(cmath.exp(1j), abs=1e-12)

    def test_unit_modulus_for_real_wavenumber(self):
        split = constant_split(kappa0_sq=9.0, degree=3)
        phi = build_gpw(split, (0.28, 0.96))
        rng = np.random.default_rng(0)
        for point in rng.uniform(-1, 1, (30, 2)):
            assert abs(phi(tuple(point))) == pytest.approx(1.0, abs=1e-12)

    def test_evanescent_wavenumber_supported(self):
        split = constant_split(kappa0_sq=-4.0, degree=2)
        phi = build_gpw(split, (1.0, 0.0))
        # principal root of -4 is 2i, so the phase is -2X: real decay
        assert phi((0.5, 0.0)) == pytest.approx(math.exp(-1.0))

    def test_complex_direction_supported(self):
        # evanescent direction with unit bilinear norm: cosh^2 - sinh^2 = 1
        split = constant_split(kappa0_sq=9.0, degree=3)
        t = 0.4
        direction = (math.cosh(t), 1j * math.sinh(t))
        phi = build_gpw(split, direction)
        assert phi.residual_norm <= 1e-11
        expected = linear_phase(2, 3.0, direction)
        assert (phi.phase - expected).max_abs() <= 1e-13 * 9.0
        # oscillates along the first axis, decays/grows along the second
        assert abs(phi((0.3, 0.0))) == pytest.approx(1.0)
        assert abs(phi((0.0, 0.3))) < 1.0 < abs(phi((0.0, -0.3)))

    def test_complex_direction_must_be_unit(self):
        with pytest.raises(ValueError):
            build_gpw(constant_split(), (1.0, 1j))  # bilinear norm zero


class TestCertificate:
    @pytest.mark.parametrize("dim", [2, 3])
    def test_random_jets_certify(self, dim):
        rng = np.random.default_rng(100 + dim)
        for degree in range(2, 7):
            kappa_sq = random_poly(rng, dim, degree - 2) + GradedPoly.constant(dim, 8.0)
            split = make_helmholtz_split(kappa_sq, degree)
            for direction in (
                unit_circle_directions(3) if dim == 2 else unit_sphere_directions(3)
            ):
                phi = build_gpw(split, direction)
                assert phi.residual_norm <= 1e-11
                assert certificate_norm(split, phi.phase) <= 1e-11

    def test_distinct_directions_distinct_phases(self):
        rng = np.random.default_rng(1)
        split = make_helmholtz_split(
            random_poly(rng, 2, 2) + GradedPoly.constant(2, 5.0), 4
        )
        family = build_family(split, unit_circle_directions(7))
        linear_layers = [tuple(phi.phase.layer(1).coeffs.items()) for phi in family]
        assert len(set(linear_layers)) == 7


class TestPlaneWaves:
    def test_reference_family_matches_constant_case(self):
        split = constant_split(kappa0_sq=16.0, degree=3)
        dirs = unit_circle_directions(5)
        gpw = build_family(split, dirs)
        plane = plane_wave_family(split, dirs)
        for a, b in zip(gpw, plane):
            assert (a.phase - b.phase).max_abs() <= 1e-13

    def test_plane_wave_values(self):
        psi = plane_wave(2, 2.0, (1.0, 0.0), 3, center=(0.5, 0.0))
        assert psi((0.5, 0.0)) == pytest.approx(1.0)
        assert psi((0.5 + math.pi / 2, 0.0)) == pytest.approx(-1.0)


class TestRecords:
    def test_roundtrip(self):
        split = constant_split(degree=3)
        family = build_family(split, unit_circle_directions(4), center=(0.1, 0.2))
        records = family_to_records(family)
        back = family_from_records(records)
        for original, restored in zip(family, back):
            assert restored.center == original.center
            assert restored.degree == original.degree
            assert (restored.phase - original.phase).max_abs() == 0.0
            assert restored.residual_norm == original.residual_norm
            assert restored.operator == original.operator == "helmholtz"

    def test_record_fields(self):
        split = constant_split(degree=2)
        record = family_to_records(build_family(split, [(1.0, 0.0)]))[0]
        assert set(record) == {"direction", "x0", "p", "operator", "phase", "residual_norm"}
        assert record["p"] == 2

    def test_complex_direction_roundtrip(self):
        split = constant_split(kappa0_sq=4.0, degree=2)
        t = 0.3
        family = [build_gpw(split, (math.cosh(t), 1j * math.sinh(t)))]
        records = family_to_records(family)
        assert records[0]["direction"][0] == pytest.approx(math.cosh(t))
        assert records[0]["direction"][1] == pytest.approx([0.0, math.sinh(t)])
        back = family_from_records(records)
        assert back[0].direction == family[0].direction


def variable_helmholtz_split(dim, degree=5):
    rng = np.random.default_rng(60 + dim)
    kappa_sq = random_poly(rng, dim, degree - 2) + GradedPoly.constant(dim, 9.0)
    return make_helmholtz_split(kappa_sq, degree)


def variable_convected_split(dim, degree=5):
    rho = GradedPoly.constant(dim, 1.2) + GradedPoly.variable(dim, 0).scaled(0.1)
    mach = [
        GradedPoly.constant(dim, m) + GradedPoly.variable(dim, dim - 1).scaled(0.03 * (k + 1))
        for k, m in enumerate((0.3, -0.2, 0.1)[:dim])
    ]
    return make_convected_split(rho, mach, 3.0 + 0.5j, degree)


def mixed_directions(dim):
    """Real directions plus one evanescent direction of unit bilinear norm."""
    t = 0.4
    evanescent = (math.cosh(t), 1j * math.sinh(t)) + (0.0,) * (dim - 2)
    real = unit_circle_directions(4) if dim == 2 else unit_sphere_directions(4)
    return real[:2] + [evanescent] + real[2:]


def same_function(a, b):
    return (
        a.phase.cap == b.phase.cap
        and a.phase.vec.tobytes() == b.phase.vec.tobytes()
        and a.residual_norm == b.residual_norm
        and a.direction == b.direction
        and a.center == b.center
    )


class TestStackedFamily:
    @pytest.mark.parametrize("dim", [2, 3])
    @pytest.mark.parametrize("make", [variable_helmholtz_split, variable_convected_split])
    def test_family_rows_equal_single_builds_bit_for_bit(self, dim, make):
        split = make(dim)
        dirs = mixed_directions(dim)
        family = build_family(split, dirs, center=(0.1,) * dim)
        assert len(family) == len(dirs)
        for phi, direction in zip(family, dirs):
            assert same_function(phi, build_gpw(split, direction, center=(0.1,) * dim))
            assert phi.residual_norm <= 1e-11

    def test_permuted_directions_give_permuted_functions(self):
        split = variable_convected_split(3)
        dirs = mixed_directions(3)
        order = [3, 0, 4, 2, 1]
        family = build_family(split, dirs)
        permuted = build_family(split, [dirs[k] for k in order])
        for k, phi in zip(order, permuted):
            assert same_function(phi, family[k])

    def test_certificate_error_names_first_failing_direction(self):
        dirs = unit_circle_directions(5)
        for first in (0, 3):
            ordered = dirs[first:] + dirs[:first]
            with pytest.raises(CertificateError, match=re.escape(f"direction {ordered[0]} ")):
                build_family(corrupted(constant_split(degree=4)), ordered)

    def test_nan_certificate_aborts_at_first_direction(self):
        split = make_helmholtz_split(GradedPoly.constant(2, 16.0), 4)
        nan_split = replace(split, remainder=lambda poly: split.remainder(poly).scaled(math.nan))
        dirs = unit_circle_directions(5)
        message = re.escape(f"direction {dirs[0]} has residual nan")
        with pytest.raises(CertificateError, match=message):
            build_family(nan_split, dirs)

    def test_tolerance_failure_names_first_failure_in_input_order(self):
        split = variable_helmholtz_split(2)
        dirs = unit_circle_directions(7)
        residuals = [phi.residual_norm for phi in build_family(split, dirs)]
        tol = sorted(residuals)[-3]  # exactly two directions lie above it
        first = next(k for k, r in enumerate(residuals) if r > tol)
        assert first > 0
        with pytest.raises(CertificateError, match=re.escape(f"direction {dirs[first]} ")):
            build_family(split, dirs, tol=tol)

    def test_invalid_direction_in_the_middle_rejected(self):
        dirs = unit_circle_directions(4)
        with pytest.raises(ValueError):
            build_family(constant_split(), dirs[:2] + [(1.0, 1.0)] + dirs[2:])
        with pytest.raises(ValueError):
            build_family(constant_split(), dirs[:2] + [(0.0, 0.0, 1.0)] + dirs[2:])

    def test_empty_direction_set_gives_empty_family(self):
        assert build_family(constant_split(), []) == []


@lru_cache(maxsize=None)
def built_family(name):
    """Built families of every kind, each with one evanescent direction."""
    if name == "helmholtz-3d-49":  # the CLI shape: 49 sphere directions, p = 6
        return build_family(variable_helmholtz_split(3, 6), unit_sphere_directions(49))
    kind, dim = name.split("-")
    dim = int(dim[0])
    make = variable_helmholtz_split if kind == "helmholtz" else variable_convected_split
    return build_family(make(dim), mixed_directions(dim), center=(0.1, -0.0, 0.3)[:dim])


FAMILIES = ["helmholtz-2d", "helmholtz-3d", "convected-2d", "convected-3d", "helmholtz-3d-49"]

parts = st.sampled_from([0.0, -0.0, 1.0, -1.5]) | st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def hand_made_functions(draw, dim):
    """A function with a phase of random cap, signed-zero parts and any finite floats."""
    cap = draw(st.integers(-1, 4))
    size = space_dimension(dim, cap)
    vec = [complex(draw(parts), draw(parts)) for _ in range(size)]
    return GpwFunction(
        center=tuple(draw(parts) for _ in range(dim)),
        phase=GradedPoly.from_vector(dim, np.array(vec, dtype=complex)),
        degree=draw(st.integers(0, 9)),
        direction=tuple(complex(draw(parts), draw(parts)) for _ in range(dim)),
        operator=draw(st.text(max_size=12)),
        residual_norm=draw(parts),
    )


def encoder_error(family):
    with pytest.raises(ValueError) as reference:
        json_text(family_to_records(family))
    return str(reference.value)


class TestFamilyText:
    """``family_text`` against its definition, the stdlib encoder on the records."""

    @pytest.mark.parametrize("name", FAMILIES)
    def test_built_families_byte_for_byte(self, name):
        family = built_family(name)
        assert family_text(family) == json_text(family_to_records(family))

    @given(st.data(), st.integers(1, 3))
    def test_hand_made_phases_byte_for_byte(self, data, dim):
        family = data.draw(st.lists(hand_made_functions(dim), max_size=4))
        assert family_text(family) == json_text(family_to_records(family))

    def test_phase_key_inside_an_operator_name(self):
        phi = replace(built_family("helmholtz-2d")[0], operator='"phase": []')
        assert family_text([phi, phi]) == json_text(family_to_records([phi, phi]))

    @given(
        st.sampled_from(FAMILIES[:4]),
        st.integers(0, 10**6),
        st.sampled_from([math.nan, math.inf, -math.inf]),
        st.booleans(),
        st.sampled_from([None, math.nan, -math.inf]),
    )
    def test_non_finite_coefficient_raises_as_the_encoder(self, name, where, bad, imag, norm):
        family = list(built_family(name))
        row = where % len(family)
        vec = family[row].phase.vec.copy()
        col = np.flatnonzero(vec)[where % np.count_nonzero(vec)]
        vec[col] = complex(vec[col].real, bad) if imag else complex(bad, vec[col].imag)
        phase = GradedPoly.from_vector(family[row].phase.dim, vec)
        family[row] = replace(family[row], phase=phase)
        if norm is not None:  # and a non-finite header number: the message is for the first met
            other = (row + where) % len(family)
            family[other] = replace(family[other], residual_norm=norm)
        expected = encoder_error(family)
        with pytest.raises(ValueError) as got:
            family_text(family)
        assert str(got.value) == expected

    def test_empty_family(self):
        assert family_text([]) == json_text([]) == "[]\n"

    def test_round_trip_through_the_text(self):
        family = built_family("convected-3d")
        back = family_from_records(json.loads(family_text(family)))
        assert all(same_function(a, b) for a, b in zip(family, back))
