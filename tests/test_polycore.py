import itertools
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from gpwlab.polycore import (
    MAX_COEFFICIENTS,
    GradedPoly,
    HomogeneousPoly,
    _basis,
    _gather,
    _product_table,
    _reduce,
    _times,
    _vandermonde,
    evaluate_each,
    layer_dimension,
    monomials_of_degree,
    monomials_up_to,
    records_stack,
    space_dimension,
)
from gpwlab.serialize import integer, integers, real

from conftest import finite_coeffs, graded_polys, random_points

X = GradedPoly.variable(2, 0)
Y = GradedPoly.variable(2, 1)
ONE = GradedPoly.constant(2, 1.0)


def poly(coeffs):
    return GradedPoly(2, coeffs)


class TestRingOps:
    def test_add_variables(self):
        assert (X + Y).coeffs == {(1, 0): 1 + 0j, (0, 1): 1 + 0j}

    def test_add_zero_identity(self):
        p = poly({(2, 0): 3.0, (0, 1): -1j})
        assert p + GradedPoly.zero(2) == p

    def test_scalar_multiple(self):
        p = 2 * (X * X + ONE)
        assert p.coeffs == {(2, 0): 2 + 0j, (0, 0): 2 + 0j}

    def test_subtract_cancels_exactly(self):
        p = poly({(1, 1): 2.5})
        assert not (p - p)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            X + GradedPoly.variable(3, 0)


class TestMulTruncated:
    def test_first_order(self):
        got = (ONE + X).mul_truncated(ONE + Y, 1)
        assert got.coeffs == {(0, 0): 1 + 0j, (1, 0): 1 + 0j, (0, 1): 1 + 0j}

    def test_square_kept(self):
        got = (X + Y).mul_truncated(X + Y, 2)
        assert got.coeffs == {(2, 0): 1 + 0j, (1, 1): 2 + 0j, (0, 2): 1 + 0j}

    def test_square_all_dropped(self):
        assert not (X + Y).mul_truncated(X + Y, 1)

    def test_mismatch(self):
        with pytest.raises(ValueError):
            X.mul_truncated(GradedPoly.variable(3, 1), 4)


class TestCalculus:
    def test_partial_x(self):
        p = poly({(2, 1): 1.0})  # X^2 Y
        assert p.derive((1, 0)).coeffs == {(1, 1): 2 + 0j}

    def test_second_partial(self):
        p = poly({(2, 1): 1.0})
        assert p.derive((2, 0)).coeffs == {(0, 1): 2 + 0j}

    def test_derivative_kills(self):
        assert not (X * X).derive((0, 1))

    def test_gradient(self):
        p = X * X + Y * Y
        gx, gy = p.gradient()
        assert gx.coeffs == {(1, 0): 2 + 0j}
        assert gy.coeffs == {(0, 1): 2 + 0j}

    def test_laplacian(self):
        assert (X * X + Y * Y).laplacian().coeffs == {(0, 0): 4 + 0j}
        assert not (X * Y).laplacian()


class TestGrading:
    def test_truncate(self):
        p = ONE + X + poly({(3, 0): 1.0})
        assert p.truncate(2) == ONE + X

    def test_truncate_identity(self):
        p = poly({(2, 1): 1j, (0, 0): 2.0})
        assert p.truncate(p.degree) == p

    def test_truncate_to_zero(self):
        assert not poly({(3, 0): 1.0}).truncate(2)
        assert not poly({(0, 0): 1.0}).truncate(-1)

    def test_layer_extraction(self):
        p = ONE + X + X * X
        assert p.layer(1).coeffs == {(1, 0): 1 + 0j}
        assert not (X * X).layer(0)
        mixed = poly({(1, 1): 2.0, (0, 2): 1.0})
        assert mixed.layer(2).coeffs == mixed.coeffs

    def test_degree_of_zero(self):
        for dim in (1, 2, 3):
            zero = GradedPoly.zero(dim)
            assert zero.degree == -1
            assert zero.evaluate_many(np.ones((3, dim))).tolist() == [0j, 0j, 0j]


class TestEvaluate:
    def test_simple(self):
        assert (X * X + ONE).evaluate((2.0, 0.0)) == 5 + 0j

    def test_at_origin(self):
        p = poly({(0, 0): 3.5, (2, 0): 1.0, (1, 1): -2.0})
        assert p.evaluate((0.0, 0.0)) == 3.5 + 0j

    def test_imaginary_coefficient(self):
        assert (1j * X).evaluate((1.0, 0.0)) == 1j

    def test_mismatch(self):
        with pytest.raises(ValueError):
            X.evaluate((1.0, 2.0, 3.0))


class TestShifted:
    def test_shift_matches_evaluation(self):
        rng = np.random.default_rng(0)
        p = poly({(2, 0): 1.5, (1, 1): -2j, (0, 1): 0.5, (0, 0): 1.0})
        shifted = p.shifted((0.3, -0.7))
        for point in random_points(rng, 2, 20):
            moved = (point[0] + 0.3, point[1] - 0.7)
            assert abs(shifted.evaluate(point) - p.evaluate(moved)) < 1e-12


class TestCombinatorics:
    def test_monomial_enumeration(self):
        assert monomials_of_degree(2, 2) == [(0, 2), (1, 1), (2, 0)]
        assert len(monomials_of_degree(3, 4)) == layer_dimension(3, 4) == 15

    def test_space_dimension(self):
        assert space_dimension(2, 3) == 10
        assert space_dimension(3, 2) == 10
        assert space_dimension(2, -1) == 0

    def test_graded_lex_sorts_by_degree_first(self):
        monos = monomials_up_to(2, 3)
        assert monos == sorted(monos, key=lambda j: (sum(j), j))
        assert monos[0] == (0, 0)


def monomials_of_degree_reference(dim, degree):
    """The recursive enumeration that the numpy table replaced, kept as its oracle."""
    if degree < 0:
        return []
    if dim == 1:
        return [(degree,)]
    return [
        (first,) + rest
        for first in range(degree + 1)
        for rest in monomials_of_degree_reference(dim - 1, degree - first)
    ]


class TestMonomialTable:
    @pytest.mark.parametrize("dim", [1, 2, 3, 4])
    @pytest.mark.parametrize("cap", range(-1, 11))
    def test_table_equals_the_recursive_enumeration(self, dim, cap):
        reference = [j for n in range(cap + 1) for j in monomials_of_degree_reference(dim, n)]
        table = _basis(dim, cap)
        assert list(table.monomials) == monomials_up_to(dim, cap) == reference
        assert table.exponents.shape == (len(reference), dim)
        assert table.exponents.tolist() == [list(j) for j in reference]
        assert table.degrees.tolist() == [sum(j) for j in reference]
        assert table.rank(table.exponents).tolist() == list(range(len(reference)))
        for n in range(-1, cap + 1):
            assert monomials_of_degree(dim, n) == monomials_of_degree_reference(dim, n)

    @pytest.mark.parametrize("dim, cap", [(7, 5), (10, 4)])
    def test_high_dimensions_allocate_about_the_table_alone(self, dim, cap):
        # the enumeration of all (cap + 1)**dim tuples peaked at 20 MB for 7D cap 5
        # and would list 9.8 million tuples for 10D cap 4; the table is 792 and
        # 1001 monomials, about 0.4 MB at most with its tuples
        tracemalloc.start()
        try:
            table = _basis.__wrapped__(dim, cap)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        reference = [j for n in range(cap + 1) for j in monomials_of_degree_reference(dim, n)]
        assert list(table.monomials) == reference
        assert table.rank(table.exponents).tolist() == list(range(len(reference)))

    def test_tables_are_read_only(self):
        table = _basis(2, 3)
        for array in (table.exponents, table.degrees, table.below):
            with pytest.raises(ValueError):
                array[0] = 1


class TestExponentRule:
    """One rule for dict constructors and records: ints, integral floats, numpy integers."""

    def test_numpy_integers_and_integral_floats_are_accepted(self):
        want = GradedPoly(2, {(1, 2): 1.5, (0, 0): 2j})
        for key in [(np.int64(1), np.int32(2)), (np.uint8(1), 2), (1.0, 2.0), (np.float64(1), 2)]:
            got = GradedPoly(2, {key: 1.5, (0, 0): 2j})
            assert same_bits(got, want)
        assert integer(np.int64(3), "n") == 3 and type(integer(np.int16(3), "n")) is int
        assert integers([np.int64(2), 1, 4.0], "n").tolist() == [2.0, 1.0, 4.0]

    @pytest.mark.parametrize(
        "key",
        [5, (True, 0), (np.True_, 0), (1.5, 0), (-1, 2), (1, 0, 0), (1,), "ab", ((1,), 0)],
        ids=["scalar", "bool", "numpy-bool", "fraction", "negative", "long", "short", "string",
             "nested"],
    )
    def test_refused_with_value_error(self, key):
        with pytest.raises(ValueError):
            GradedPoly(2, {key: 1.0})
        with pytest.raises(ValueError):
            HomogeneousPoly(2, 1, {key: 1.0})

    def test_scalar_key_is_named(self):
        with pytest.raises(ValueError, match="bad exponent tuple 5 for dimension 2"):
            GradedPoly(2, {5: 1.0})

    def test_numpy_bools_are_refused_by_the_number_rules(self):
        for value in (np.True_, np.False_, True):
            with pytest.raises(ValueError):
                integer(value, "n")
            with pytest.raises(ValueError):
                integers([1, value], "n")

    def test_homogeneous_names_the_first_off_degree_exponent(self):
        with pytest.raises(ValueError, match=r"exponent \(0, 1\) has degree 1, expected 2"):
            HomogeneousPoly(2, 2, {(1, 1): 1.0, (0, 1): 2.0, (3, 0): 1.0})
        with pytest.raises(ValueError, match=r"exponent \(3, 0\) has degree 3, expected 2"):
            HomogeneousPoly(2, 2, {(1, 1): 1.0, (3, 0): 1.0})

    def test_homogeneous_ignores_zero_terms_of_other_degrees(self):
        layer = HomogeneousPoly(2, 2, {(1, 0): 0.0, (2, 0): 1.0, (5, 0): -0.0})
        assert layer.vec.tolist() == [0j, 0j, 1 + 0j]

    @pytest.mark.parametrize("value", [0, 0.0, -0.0, complex(0.0, -0.0), 1.5, complex(-0.0, 2.0)])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_direct_constructors_equal_the_sparse_one(self, dim, value):
        assert same_bits(GradedPoly.constant(dim, value), GradedPoly(dim, {(0,) * dim: value}))
        for degree in range(4):
            zero = HomogeneousPoly.zero(dim, degree)
            assert zero == HomogeneousPoly(dim, degree, {})
            assert zero.vec.tobytes() == HomogeneousPoly(dim, degree, {}).vec.tobytes()
        with pytest.raises(ValueError):
            GradedPoly.constant(0, value)
        with pytest.raises(ValueError):
            HomogeneousPoly.zero(dim, -1)


class TestHomogeneous:
    def test_degree_enforced(self):
        with pytest.raises(ValueError):
            HomogeneousPoly(2, 2, {(1, 0): 1.0})

    def test_add_same_degree(self):
        a = HomogeneousPoly(2, 2, {(2, 0): 1.0})
        b = HomogeneousPoly(2, 2, {(1, 1): 2.0})
        assert (a + b).coeffs == {(2, 0): 1 + 0j, (1, 1): 2 + 0j}

    def test_add_degree_mismatch(self):
        with pytest.raises(ValueError):
            HomogeneousPoly(2, 2, {}) + HomogeneousPoly(2, 3, {})

    def test_roundtrip_graded(self):
        layer = HomogeneousPoly(2, 1, {(1, 0): 2j})
        assert layer.as_graded().layer(1) == layer


class TestSerialization:
    def test_records_graded_lex(self):
        p = poly({(2, 0): 1.0, (0, 0): 3.0, (0, 1): 1j})
        records = p.to_records()
        assert [r["exponents"] for r in records] == [[0, 0], [0, 1], [2, 0]]
        assert records[1] == {"exponents": [0, 1], "re": 0.0, "im": 1.0}

    @given(st.data(), st.integers(1, 3))
    def test_roundtrip(self, data, dim):
        part = st.sampled_from([0.0, -0.0]) | st.floats(-2.0, 2.0)
        signed_zeros = st.dictionaries(
            st.sampled_from(monomials_up_to(dim, 4)), st.builds(complex, part, part), max_size=4
        )
        coeffs = {**data.draw(graded_polys(dim=dim)).coeffs, **data.draw(signed_zeros)}
        p = GradedPoly(dim, coeffs)
        back = GradedPoly.from_records(dim, p.to_records())
        assert back == p and back.vec.tobytes() == p.vec.tobytes()


def from_records_reference(dim, records):
    """The per-record reader that ``records_stack`` replaced, kept as its oracle."""
    coeffs = {}
    for record in records:
        index = tuple(integer(e, "exponent") for e in record["exponents"])
        value = complex(real(record["re"], "re"), real(record["im"], "im"))
        coeffs[index] = coeffs[index] + value if index in coeffs else value
    return GradedPoly(dim, coeffs)


def same_bits(a, b):
    return a.cap == b.cap and a.vec.tobytes() == b.vec.tobytes()


@st.composite
def record_lists(draw, dim):
    """Records over few monomials (so repeats are common), zero and signed-zero parts,
    int and float parts, and exponents that are sometimes integral floats."""
    monomials = draw(st.lists(st.sampled_from(monomials_up_to(dim, 4)), min_size=1, max_size=3))
    part = st.sampled_from([0.0, -0.0, 0, 1, -2.5]) | st.floats(-3.0, 3.0)
    records = []
    for _ in range(draw(st.integers(0, 8))):
        index = draw(st.sampled_from(monomials))
        if draw(st.booleans()):
            index = [float(e) for e in index]
        records.append({"exponents": list(index), "re": draw(part), "im": draw(part)})
    return records


class TestRecordsStack:
    """The bulk reader against the per-record loop, bit for bit, sign bits and caps included."""

    @given(st.data(), st.integers(1, 3))
    def test_one_list_equals_the_per_record_loop(self, data, dim):
        records = data.draw(record_lists(dim))
        got = GradedPoly.from_records(dim, records)
        assert same_bits(got, from_records_reference(dim, records))

    @given(st.data(), st.integers(1, 3))
    def test_each_row_equals_its_list_read_alone(self, data, dim):
        lists = data.draw(st.lists(record_lists(dim), max_size=5))
        stack, caps = records_stack(dim, lists)
        assert stack.vec.shape[0] == len(lists) == len(caps)
        assert stack.cap == max(caps, default=-1)
        for row, cap, records in zip(stack.rows(), caps, lists):
            assert same_bits(row.truncate(cap), from_records_reference(dim, records))

    def test_repeats_add_in_record_order_and_zero_sums_leave_the_cap(self):
        records = [
            {"exponents": [0, 1], "re": 1e16, "im": -0.0},
            {"exponents": [3, 0], "re": -0.0, "im": -0.0},
            {"exponents": [0, 1], "re": -1e16, "im": -0.0},
            {"exponents": [1.0, 0.0], "re": -0.0, "im": 2},
            {"exponents": [2, 0], "re": 1.5, "im": 0.0},
            {"exponents": [0, 1], "re": 1.0, "im": -0.0},
            {"exponents": [2, 0], "re": -1.5, "im": 0.0},
        ]
        got = GradedPoly.from_records(2, records)
        assert same_bits(got, from_records_reference(2, records))
        assert got.cap == 1 and got.vec.tolist() == [0j, 1 + 0j, 2j]  # 1 + 1e16 - 1e16 is 0
        assert np.signbit(got.vec.imag[1]) and np.signbit(got.vec.real[2])

    @pytest.mark.parametrize(
        "record",
        [
            {"exponents": [True, 0], "re": 1.0, "im": 0.0},
            {"exponents": [1.5, 0], "re": 1.0, "im": 0.0},
            {"exponents": [-1, 2], "re": 1.0, "im": 0.0},
            {"exponents": [1, 0, 0], "re": 1.0, "im": 0.0},
            {"exponents": "12", "re": 1.0, "im": 0.0},
            {"exponents": [1, 0], "re": "0", "im": 0.0},
            {"exponents": [1, 0], "re": 1.0, "im": None},
            {"exponents": [1, 0], "re": 1.0},
            [[1, 0], 1.0, 0.0],
            {"exponents": 5, "re": 1.0, "im": 0.0},
        ],
        ids=["bool", "fraction", "negative", "length", "string-exponents", "string-re",
             "null-im", "missing-im", "list-record", "scalar-exponents"],
    )
    def test_refuses_what_the_per_record_loop_refuses(self, record):
        records = [{"exponents": [0, 0], "re": 1.0, "im": 0.0}, record]
        with pytest.raises((KeyError, TypeError, ValueError)):
            from_records_reference(2, records)
        with pytest.raises((KeyError, TypeError, ValueError)):
            GradedPoly.from_records(2, records)

    @pytest.mark.parametrize("exponent", [4, 10**9, 10**30, 1e308])
    def test_bound_is_checked_before_storage_is_sized(self, exponent):
        records = [{"exponents": [exponent, exponent], "re": 0.0, "im": 0.0}]
        with pytest.raises(ValueError, match="exceeds the degree bound 3"):
            GradedPoly.from_records(2, records, bound=3)

    @pytest.mark.parametrize("exponent", [10**5, 10**7])
    def test_huge_exponent_without_a_bound_is_refused_at_once(self, exponent):
        records = [{"exponents": [exponent, 0], "re": 1.0, "im": 0.0}]
        for make in (lambda: GradedPoly(2, {(exponent, 0): 1}),
                     lambda: GradedPoly.from_records(2, records)):
            start = time.perf_counter()
            with pytest.raises(ValueError, match=f"{exponent}, 0.* more than {MAX_COEFFICIENTS}"):
                make()
            assert time.perf_counter() - start < 1.0

    def test_largest_degree_that_fits_is_stored(self):
        assert GradedPoly(2, {(360, 0): 1}).cap == 360
        assert space_dimension(2, 360) <= MAX_COEFFICIENTS < space_dimension(2, 361)
        with pytest.raises(ValueError):
            GradedPoly(2, {(0, 361): 1})

    @given(st.data(), st.integers(1, 3))
    def test_dict_constructor_equals_records(self, data, dim):
        part = st.sampled_from([0.0, -0.0, 1.0, -2.5]) | st.floats(-3.0, 3.0)
        terms = data.draw(st.dictionaries(
            st.sampled_from(monomials_up_to(dim, 6)), st.builds(complex, part, part), max_size=6
        ))
        if data.draw(st.booleans()):  # a zero term above every other degree
            terms[(0,) * (dim - 1) + (7,)] = complex(data.draw(part.filter(lambda x: x == 0)), -0.0)
        records = [{"exponents": list(j), "re": v.real, "im": v.imag} for j, v in terms.items()]
        got = GradedPoly(dim, terms)
        stack, caps = records_stack(dim, [records, records])
        assert same_bits(got, GradedPoly.from_records(dim, records))
        assert caps.tolist() == [got.cap] * 2 and stack.cap == got.cap
        assert all(row.vec.tobytes() == got.vec.tobytes() for row in stack.rows())

    def test_zero_terms_are_stored_as_positive_zero(self):
        terms = {(1, 0): complex(-0.0, -0.0), (0, 1): complex(-0.0, 1.0), (2, 0): 1.0}
        records = [{"exponents": list(j), "re": v.real, "im": v.imag} for j, v in terms.items()]
        for got in (GradedPoly(2, terms), GradedPoly.from_records(2, records)):
            assert got.vec.tolist() == [0j, 1j, 0j, 0j, 0j, 1 + 0j]
            assert np.signbit(got.vec.view(float)).tolist() == [False] * 2 + [True] + [False] * 9

    def test_no_lists_and_empty_lists(self):
        stack, caps = records_stack(2, [])
        assert stack.vec.shape == (0, 0) and stack.cap == -1 and caps.size == 0
        stack, caps = records_stack(3, [[], []])
        assert stack.vec.shape == (2, 0) and caps.tolist() == [-1, -1]


# -- spec-level properties -------------------------------------------------


def test_evaluate_linearity_random_points():
    rng = np.random.default_rng(1234)
    p = poly({j: complex(*rng.uniform(-1, 1, 2)) for j in monomials_up_to(2, 4)})
    q = poly({j: complex(*rng.uniform(-1, 1, 2)) for j in monomials_up_to(2, 4)})
    total = p + q
    for point in random_points(rng, 2, 100):
        lhs = total.evaluate(point)
        rhs = p.evaluate(point) + q.evaluate(point)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs), abs(rhs))


@given(graded_polys(), graded_polys(), st.integers(0, 6), st.integers(0, 6))
def test_truncation_compatibility(p, q, bound_a, bound_b):
    lo, hi = min(bound_a, bound_b), max(bound_a, bound_b)
    assert p.mul_truncated(q, hi).truncate(lo) == p.mul_truncated(q, lo)


@given(graded_polys(max_degree=4), graded_polys(max_degree=4), st.integers(0, 1))
def test_leibniz_rule(p, q, axis):
    product = p.mul_truncated(q, None)
    lhs = product.partial(axis)
    rhs = p.partial(axis).mul_truncated(q, None) + p.mul_truncated(q.partial(axis), None)
    assert (lhs - rhs).max_abs() <= 1e-12 * max(1.0, lhs.max_abs(), rhs.max_abs())


@given(graded_polys())
def test_graded_consistency(p):
    reassembled = GradedPoly.zero(2)
    for n in range(p.degree + 1):
        layer = p.layer(n)
        assert all(sum(j) == n for j in layer.coeffs)
        reassembled = reassembled + layer.as_graded()
    assert reassembled == p


@given(graded_polys(), st.integers(0, 5))
def test_truncate_idempotent(p, bound):
    once = p.truncate(bound)
    assert once.truncate(bound) == once


# -- the vector kernel against a dict-of-tuples reference -------------------
#
# The reference is the sparse implementation the vector core replaced.
# Structural results (degree, layers, truncation) must agree exactly; sums
# of products run in another order, so coefficients agree to a tolerance
# fixed from complex128 rounding of at most a few hundred products of
# magnitude <= 4.

TOL = 1e-12


def ref_mul(a, b, bound):
    out = {}
    for ja, ca in a.items():
        for jb, cb in b.items():
            if bound is None or sum(ja) + sum(jb) <= bound:
                key = tuple(x + y for x, y in zip(ja, jb))
                out[key] = out.get(key, 0j) + ca * cb
    return out


def ref_derive(a, index):
    out = {}
    for j, c in a.items():
        if all(e >= k for e, k in zip(j, index)):
            factor = 1
            for e, k in zip(j, index):
                for step in range(k):
                    factor *= e - step
            out[tuple(e - k for e, k in zip(j, index))] = factor * c
    return out


def ref_evaluate(a, point):
    total = 0j
    for j, c in a.items():
        term = c
        for x, e in zip(point, j):
            term *= complex(x) ** e
        total += term
    return total


def assert_matches(poly, reference, tol=TOL):
    keys = set(poly.coeffs) | set(reference)
    for key in keys:
        assert abs(poly.coeffs.get(key, 0j) - reference.get(key, 0j)) <= tol, key


def points_for(dim, count, seed=0):
    return np.random.default_rng(seed).uniform(-1.0, 1.0, (count, dim))


dims = st.integers(1, 3)


@given(st.data(), dims, st.one_of(st.none(), st.integers(-2, 9)))
def test_mul_truncated_matches_reference(data, dim, bound):
    p = data.draw(graded_polys(dim=dim))
    q = data.draw(graded_polys(dim=dim))
    got = p.mul_truncated(q, bound)
    assert_matches(got, ref_mul(p.coeffs, q.coeffs, bound))
    if bound is not None and bound < 0:
        assert not got and got.degree == -1


@given(st.data(), dims)
def test_bound_below_operand_degrees(data, dim):
    p = data.draw(graded_polys(dim=dim, max_degree=5))
    q = data.draw(graded_polys(dim=dim, max_degree=5))
    bound = max(min(p.degree, q.degree) - 1, 0)
    got = p.mul_truncated(q, bound)
    assert got.degree <= bound
    assert_matches(got, ref_mul(p.coeffs, q.coeffs, bound))


@given(st.data(), dims, st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_derive_matches_reference_beyond_degree(data, dim, orders):
    p = data.draw(graded_polys(dim=dim))
    index = tuple(orders[:dim])
    got = p.derive(index)
    assert got.coeffs == ref_derive(p.coeffs, index)
    if sum(index) > p.degree:
        assert not got


@given(st.data(), dims)
def test_evaluate_and_evaluate_many_match_reference(data, dim):
    p = data.draw(graded_polys(dim=dim))
    points = points_for(dim, 7)
    batch = p.evaluate_many(points)
    assert batch.shape == (7,)
    for point, value in zip(points, batch):
        expected = ref_evaluate(p.coeffs, point)
        assert abs(p.evaluate(tuple(point)) - expected) <= TOL
        assert abs(value - expected) <= TOL


@given(st.data(), dims)
def test_shifted_matches_shifted_evaluation(data, dim):
    p = data.draw(graded_polys(dim=dim))
    offset = tuple(points_for(dim, 1, seed=1)[0])
    shifted = p.shifted(offset)
    assert shifted.degree == p.degree
    for point in points_for(dim, 5, seed=2):
        moved = tuple(x + o for x, o in zip(point, offset))
        assert abs(shifted.evaluate(tuple(point)) - ref_evaluate(p.coeffs, moved)) <= 1e-11


@given(st.data(), dims, st.integers(-2, 6))
def test_grading_matches_reference(data, dim, bound):
    p = data.draw(graded_polys(dim=dim))
    reference = dict(p.coeffs)
    assert p.degree == max((sum(j) for j in reference), default=-1)
    assert p.truncate(bound).coeffs == {j: c for j, c in reference.items() if sum(j) <= bound}
    if bound >= 0:
        layer = p.layer(bound)
        assert layer.degree == bound
        assert layer.coeffs == {j: c for j, c in reference.items() if sum(j) == bound}


@given(st.data(), dims)
def test_equality_ignores_storage_cap(data, dim):
    p = data.draw(graded_polys(dim=dim))
    one = GradedPoly.constant(dim, 1.0)
    padded = p.mul_truncated(one, p.degree + 3)  # same terms, higher degree cap
    assert padded == p and p == padded
    assert p == GradedPoly(dim, dict(p.coeffs))
    bumped = p + GradedPoly.monomial(dim, (0,) * (dim - 1) + (5,), 1.0)
    assert bumped != p


class TestImmutability:
    def test_vectors_are_read_only(self):
        p = poly({(2, 0): 1.0, (0, 1): 2j})
        results = [
            p,
            p + X,
            p - X,
            p.scaled(2.0),
            p.mul_truncated(p, 3),
            p.derive((1, 0)),
            p.truncate(1),
            p.shifted((0.5, 0.5)),
            GradedPoly.from_vector(2, [1.0, 2.0, 3.0]),
        ]
        for value in results + [p.layer(2), p.layer(2) + p.layer(2), p.layer(2).scaled(3)]:
            with pytest.raises(ValueError):
                value.vec[0] = 5.0
        assert p.coeffs == {(0, 1): 2j, (2, 0): 1 + 0j}

    def test_fields_and_coeffs_cannot_be_assigned(self):
        p = poly({(1, 0): 1.0})
        with pytest.raises(AttributeError):
            p.dim = 3
        with pytest.raises(TypeError):
            p.coeffs[(1, 0)] = 2.0

    def test_from_vector_copies(self):
        source = np.array([1.0, 2.0, 3.0], dtype=complex)
        p = GradedPoly.from_vector(2, source)
        source[0] = 9.0
        assert p.coeffs[(0, 0)] == 1.0


class TestVectorLayout:
    def test_graded_lex_positions(self):
        p = poly({(0, 0): 1.0, (1, 0): 2.0, (0, 2): 3.0})
        assert p.vec.tolist() == [1, 0, 2, 3, 0, 0]
        assert p.layer(1).vec.tolist() == [0, 2]

    def test_from_vector_rejects_partial_cap(self):
        with pytest.raises(ValueError):
            GradedPoly.from_vector(2, [1.0, 2.0])
        with pytest.raises(ValueError):
            HomogeneousPoly.from_vector(2, 2, [1.0, 2.0])

    def test_evaluate_many_checks_shape(self):
        with pytest.raises(ValueError):
            X.evaluate_many([(1.0, 2.0, 3.0)])

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_linear_places_each_axis_on_its_variable(self, dim):
        gradient = [complex(axis + 1, -axis) for axis in range(dim)]
        expected = GradedPoly(dim, {
            tuple(int(i == axis) for i in range(dim)): g for axis, g in enumerate(gradient)
        })
        p = GradedPoly.linear(dim, gradient)
        assert p.cap == 1
        assert p.vec.tobytes() == expected.vec.tobytes()
        with pytest.raises(ValueError):
            GradedPoly.linear(dim, gradient + [1.0])


# -- stacks: every kernel on a stack equals the one-row kernel, row by row --


@st.composite
def stacks(draw, dim, rows=None):
    count = rows if rows is not None else draw(st.integers(1, 4))
    return GradedPoly.stack([draw(graded_polys(dim=dim)) for _ in range(count)])


def assert_rows_equal(stacked, singles):
    """Each row of a stacked result has the bytes, and cap or degree, of its one-row result."""
    assert stacked.vec.shape[:-1] == (len(singles),)
    for row, single in zip(stacked.vec, singles):
        assert single.vec.ndim == 1
        assert row.tobytes() == single.vec.tobytes()
    if isinstance(stacked, GradedPoly):
        assert all(row.cap == stacked.cap for row in singles)
    else:
        assert all(row.degree == stacked.degree for row in singles)


bounds = st.one_of(st.none(), st.integers(-2, 9))


@given(st.data(), dims, bounds)
def test_stack_products_match_rows(data, dim, bound):
    a = data.draw(stacks(dim))
    b = data.draw(stacks(dim, rows=len(a.rows())))
    one = data.draw(graded_polys(dim=dim))
    assert_rows_equal(a.mul_truncated(b, bound), [
        x.mul_truncated(y, bound) for x, y in zip(a.rows(), b.rows())
    ])
    assert_rows_equal(one.mul_truncated(b, bound), [one.mul_truncated(y, bound) for y in b.rows()])
    assert_rows_equal(a.mul_truncated(one, bound), [x.mul_truncated(one, bound) for x in a.rows()])


@given(st.data(), dims)
def test_stack_products_below_operand_degrees_match_rows(data, dim):
    a = data.draw(stacks(dim))
    one = data.draw(graded_polys(dim=dim, max_degree=5))
    bound = max(min(a.degree, one.degree) - 1, 0)
    assert_rows_equal(one.mul_truncated(a, bound), [one.mul_truncated(x, bound) for x in a.rows()])
    assert_rows_equal(a * a, [x * x for x in a.rows()])


# -- the lower cut: pairs below an operand's lowest non-zero layer are not formed --


def mul_full_table(p, q, bound):
    """The product over every pair of the bound's table, low layers included: the
    kernel before the lower cut, kept as its oracle."""
    top = p.cap + q.cap if bound is None else min(bound, p.cap + q.cap)
    if p.cap < 0 or q.cap < 0 or top < 0:
        return p.mul_truncated(q, bound)
    ia, ib, out = _product_table(p.dim, 0, min(p.cap, top), 0, min(q.cap, top), top)
    terms = _times(_gather(p.vec, ia), _gather(q.vec, ib))
    return GradedPoly.from_vector(p.dim, _reduce(out, terms, space_dimension(p.dim, top)))


@st.composite
def low_stacks(draw, dim, rows):
    """``rows`` polynomials (a single one if ``rows`` is None) of a drawn cap, every row
    zero below a drawn layer, or not; zeros of both signs, dense or sparse values."""
    cap = draw(st.integers(-1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (rows or 1, space_dimension(dim, cap))
    vec = rng.uniform(-2, 2, shape) + 1j * rng.uniform(-2, 2, shape)
    zeros = rng.random(shape) < draw(st.sampled_from([0.0, 0.5, 0.9, 1.0]))
    signs = rng.choice([-1.0, 1.0], (2,) + shape)
    vec.real[zeros], vec.imag[zeros] = 0.0 * signs[0][zeros], 0.0 * signs[1][zeros]
    if draw(st.booleans()):
        low = draw(st.integers(0, cap + 1))
        below = space_dimension(dim, low - 1)
        vec.real[:, :below] = 0.0 * signs[0][:, :below]
        vec.imag[:, :below] = 0.0 * signs[1][:, :below]
    return GradedPoly.from_vector(dim, vec if rows else vec[0])


@given(st.data(), dims, st.one_of(st.none(), st.integers(-2, 13)))
def test_lower_cut_has_the_bits_of_the_full_table(data, dim, bound):
    rows = data.draw(st.integers(1, 60))
    a = data.draw(low_stacks(dim, rows))
    b = data.draw(low_stacks(dim, data.draw(st.sampled_from([None, rows]))))
    one = data.draw(low_stacks(dim, None))
    for p, q in ((a, b), (b, a), (one, a), (a, one), (one, one)):
        got, want = p.mul_truncated(q, bound), mul_full_table(p, q, bound)
        assert got.cap == want.cap
        assert got.vec.shape == want.vec.shape and got.vec.tobytes() == want.vec.tobytes()


def test_lower_cut_forms_no_zero_times_infinity():
    # X * inf: the full table forms 0 * inf = NaN at the constant term, from the
    # constant of X, which is below X's lowest non-zero layer; the cut skips it.
    x = GradedPoly.variable(1, 0)
    infinite = GradedPoly.constant(1, complex(np.inf, 0.0))
    with np.errstate(invalid="ignore"):
        got, want = x.mul_truncated(infinite, None), mul_full_table(x, infinite, None)
    assert np.isnan(want.vec[0].real) and np.isnan(want.vec[0].imag)
    assert got.vec[:1].tobytes() == np.zeros(1, dtype=complex).tobytes()
    assert got.vec[1:].tobytes() == want.vec[1:].tobytes()


@given(st.data(), dims, st.lists(st.integers(0, 6), min_size=3, max_size=3))
def test_stack_derive_matches_rows(data, dim, orders):
    a = data.draw(stacks(dim))
    index = tuple(orders[:dim])
    assert_rows_equal(a.derive(index), [x.derive(index) for x in a.rows()])
    assert_rows_equal(a.laplacian(), [x.laplacian() for x in a.rows()])


@given(st.data(), dims)
def test_stack_sums_across_caps_match_rows(data, dim):
    a = data.draw(stacks(dim))
    b = data.draw(stacks(dim, rows=len(a.rows())))
    one = data.draw(graded_polys(dim=dim, max_degree=6))
    for left, right in ((a, b), (a, one), (one, a)):
        lefts = left.rows() * len(a.rows()) if left is one else left.rows()
        rights = right.rows() * len(a.rows()) if right is one else right.rows()
        assert_rows_equal(left + right, [x + y for x, y in zip(lefts, rights)])
        assert_rows_equal(left - right, [x - y for x, y in zip(lefts, rights)])


@given(st.data(), dims, st.integers(-2, 6), finite_coeffs)
def test_stack_grading_and_scaling_match_rows(data, dim, bound, factor):
    a = data.draw(stacks(dim))
    assert_rows_equal(a.truncate(bound), [x.truncate(bound) for x in a.rows()])
    assert_rows_equal(a.scaled(factor), [x.scaled(factor) for x in a.rows()])
    if bound >= 0:
        layer = a.layer(bound)
        assert_rows_equal(layer, [x.layer(bound) for x in a.rows()])
        assert_rows_equal(layer.as_graded(), [x.layer(bound).as_graded() for x in a.rows()])
        assert_rows_equal(layer + layer.scaled(factor), [
            x.layer(bound) + x.layer(bound).scaled(factor) for x in a.rows()
        ])
        assert_rows_equal(layer - layer, [x.layer(bound) - x.layer(bound) for x in a.rows()])


@given(st.data(), dims, st.booleans())
def test_stack_scaling_by_row_factors_matches_rows(data, dim, constants):
    if constants:  # one-element rows (cap 0)
        count = data.draw(st.integers(1, 4))
        a = GradedPoly.stack([
            GradedPoly.constant(dim, data.draw(finite_coeffs)) for _ in range(count)
        ])
    else:
        a = data.draw(stacks(dim))
    rows = a.rows()
    factors = data.draw(st.lists(finite_coeffs, min_size=len(rows), max_size=len(rows)))
    assert_rows_equal(a.scaled(np.array(factors)), [x.scaled(f) for x, f in zip(rows, factors)])
    reals = np.array([f.real for f in factors])
    assert_rows_equal(a.scaled(reals), [x.scaled(f) for x, f in zip(rows, reals.tolist())])
    top = max(a.cap, 0)
    assert_rows_equal(a.layer(top).scaled(np.array(factors)), [
        x.layer(top).scaled(f) for x, f in zip(rows, factors)
    ])


@given(st.data(), dims)
def test_stack_shift_matches_rows(data, dim):
    a = data.draw(stacks(dim))
    offset = tuple(points_for(dim, 1, seed=3)[0])
    assert_rows_equal(a.shifted(offset), [x.shifted(offset) for x in a.rows()])


@given(st.data(), dims, st.integers(0, 9))
def test_stack_evaluation_columns_match_rows(data, dim, count):
    a = data.draw(stacks(dim))
    points = points_for(dim, count, seed=4)
    values = a.evaluate_many(points)
    assert values.shape == (count, len(a.vec))
    for column, row in zip(values.T, a.vec):
        # a fresh copy of the row, so the match does not hinge on the stack's memory
        single = GradedPoly.from_vector(dim, row).evaluate_many(points)
        assert column.tobytes() == single.tobytes()


def vandermonde_reference(dim, cap, points):
    """The all-``pow`` Vandermonde matrix that the parent-column products replaced, kept as
    their oracle to within rounding."""
    exponents = _basis(dim, cap).exponents
    matrix = np.ones((len(points), len(exponents)), dtype=points.dtype)
    powers = np.arange(cap + 1)
    for axis in range(dim):
        matrix *= (points[:, axis, None] ** powers)[:, exponents[:, axis]]
    return matrix


def vandermonde_chain(dim, cap, points):
    """Each monomial's column written out as its chain of parents: 1 times the
    coordinates, last axis first, one multiply at a time."""
    columns = []
    for exponents in monomials_up_to(dim, cap):
        column = np.ones(len(points), dtype=points.dtype)
        for axis in reversed(range(dim)):
            for _ in range(exponents[axis]):
                column = column * np.ascontiguousarray(points[:, axis])
        columns.append(column)
    return np.stack(columns, axis=1) if columns else np.ones((len(points), 0), points.dtype)


def assert_same_bits_but_nan_signs(got, want):
    """Equal bytes, but a NaN's sign is free: a product of two NaNs takes the sign
    of either, by its position in numpy's SIMD loop."""
    assert got.dtype == want.dtype and got.shape == want.shape
    got, want = np.ascontiguousarray(got).view(float), np.ascontiguousarray(want).view(float)
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


# quiet NaNs only: no numpy operation makes a signalling one
special_reals = st.sampled_from([-0.0, 0.0, np.inf, -np.inf, np.nan, -np.nan, 1e-200, -1e200])
coordinates = special_reals | st.floats(-4.0, 4.0)
# zero, or far enough from zero that no power up to 10 underflows
moderate = st.sampled_from([0.0, -0.0]) | st.floats(1e-3, 4.0) | st.floats(-4.0, -1e-3)


@st.composite
def special_points(draw, dim, complex_points, coordinates=coordinates, max_count=12):
    count = draw(st.integers(0, max_count))
    real = np.array(draw(st.lists(coordinates, min_size=count * dim, max_size=count * dim)))
    if not complex_points:
        return real.reshape(count, dim)
    points = np.empty((count, dim), dtype=complex)
    points.real = real.reshape(count, dim)
    points.imag = np.reshape(
        draw(st.lists(coordinates, min_size=count * dim, max_size=count * dim)), (count, dim)
    )
    return points


@given(st.data(), st.integers(1, 3), st.integers(0, 10), st.booleans())
def test_vandermonde_is_within_rounding_of_the_all_pow_matrix(data, dim, cap, complex_points):
    # Each entry of either matrix is at most cap roundings from the exact product, a
    # real multiply rounding by eps / 2 and a complex one by at most sqrt(5) eps / 2
    # (normwise), with pow's own error on top: 4 * cap * eps bounds the difference.
    points = data.draw(special_points(dim, complex_points, moderate, max_count=30))
    got = _vandermonde(dim, cap, points)
    want = vandermonde_reference(dim, cap, points)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.all(np.abs(got - want) <= 4 * cap * np.finfo(float).eps * np.abs(want))


@given(st.data(), dims, st.integers(-1, 8), st.booleans())
def test_vandermonde_has_the_bits_of_the_parent_chain(data, dim, cap, complex_points):
    points = data.draw(special_points(dim, complex_points))
    with np.errstate(all="ignore"):
        got = _vandermonde(dim, cap, points)
        want = vandermonde_chain(dim, cap, points)
    assert_same_bits_but_nan_signs(got, want)


@pytest.mark.parametrize("complex_points", [False, True])
@pytest.mark.parametrize("dim", [1, 2])
def test_vandermonde_on_every_combination_of_special_values(dim, complex_points):
    values = [-0.0, 0.0, np.inf, -np.inf, np.nan, -1.5]
    if complex_points:
        values = [complex(re, im) for re in values for im in values]
    points = np.array(list(itertools.product(values, repeat=dim)))
    with np.errstate(all="ignore"):
        for cap in range(5):
            assert_same_bits_but_nan_signs(
                _vandermonde(dim, cap, points), vandermonde_chain(dim, cap, points)
            )


@pytest.mark.parametrize("complex_points", [False, True])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_vandermonde_on_many_points_has_the_bits_of_the_parent_chain(dim, complex_points):
    # thousands of points run numpy's vector loops, not only their tails
    rng = np.random.default_rng(5)
    points = rng.uniform(-2.0, 2.0, (2000, dim))
    if complex_points:
        points = points + 1j * rng.uniform(-2.0, 2.0, (2000, dim))
    got = _vandermonde(dim, 8, points)
    assert got.tobytes() == vandermonde_chain(dim, 8, points).tobytes()


@given(st.data(), dims, st.booleans())
def test_evaluate_each_has_the_bits_of_each_evaluation(data, dim, complex_points):
    polys = [
        data.draw(stacks(dim) if data.draw(st.booleans()) else graded_polys(dim=dim, max_degree=8))
        for _ in range(data.draw(st.integers(1, 4)))
    ]
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    points = rng.uniform(-1.0, 1.0, (data.draw(st.integers(0, 9)), dim))
    if complex_points:
        points = points + 1j * rng.uniform(-1.0, 1.0, points.shape)
    values = evaluate_each(polys, points)
    assert len(values) == len(polys)
    for got, poly in zip(values, polys):
        want = GradedPoly.from_vector(dim, poly.vec).evaluate_many(points)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_evaluate_each_refuses_mixed_dimensions():
    with pytest.raises(ValueError):
        evaluate_each([X, GradedPoly.variable(3, 0)], np.zeros((2, 2)))


@given(st.data(), dims)
def test_stack_accessors_answer_for_the_whole_stack(data, dim):
    polys = [data.draw(graded_polys(dim=dim)) for _ in range(data.draw(st.integers(1, 4)))]
    a = GradedPoly.stack(polys)
    assert a.degree == max(p.degree for p in polys)
    assert bool(a) == any(polys)
    assert a.max_abs() == max(p.max_abs() for p in polys)
    assert a.row_max_abs().tolist() == [p.max_abs() for p in polys]
    assert all(p.row_max_abs().shape == () for p in polys)
    assert set(a.coeffs) == set().union(*(p.coeffs for p in polys))
    for index, values in a.coeffs.items():
        assert values == tuple(p.coeffs.get(index, 0j) for p in polys)
    assert all(row == p for row, p in zip(a.rows(), polys))
    assert GradedPoly.from_vector(dim, a.vec) == a


class TestStackShape:
    def test_stack_of_one_row_is_a_stack(self):
        a = GradedPoly.stack([X + Y])
        assert a.vec.shape == (1, 3)
        assert a.rows() == (X + Y,)
        assert (a * a).vec.shape == (1, 6)
        assert a.layer(5).vec.shape == (1, 6)

    def test_single_polynomial_is_its_own_row(self):
        p = X + Y
        assert p.rows() == (p,)

    def test_stack_needs_rows_of_one_dimension(self):
        with pytest.raises(ValueError):
            GradedPoly.stack([])
        with pytest.raises(ValueError):
            GradedPoly.stack([X, GradedPoly.variable(3, 0)])
        with pytest.raises(ValueError):
            GradedPoly.stack([GradedPoly.stack([X])])

    def test_one_term_times_a_stack_of_one_row(self):
        # numpy rounds a one-element vector times a one-element stack differently
        # from two one-element vectors; the kernels must not show it
        one = GradedPoly.constant(1, 1.25 + 1j)
        row = GradedPoly.constant(1, 1.238339800464216 + 1j)
        stack = GradedPoly.stack([row])
        for got, want in ((one.mul_truncated(stack, 0), one * row), (stack * one, row * one)):
            assert got.vec[0].tobytes() == want.vec.tobytes()
        offset = (0.5 - 0.25j,)
        assert stack.shifted(offset).vec[0].tobytes() == row.shifted(offset).vec.tobytes()

    def test_one_term_stack_scaled_by_row_factors(self):
        row = GradedPoly.constant(1, 1.238339800464216 + 1j)
        got = GradedPoly.stack([row]).scaled(np.array([1.25 + 1j]))
        assert got.vec[0].tobytes() == row.scaled(1.25 + 1j).vec.tobytes()

    def test_row_factors_must_match_the_rows(self):
        with pytest.raises(ValueError):
            GradedPoly.stack([X, Y]).scaled(np.ones(3))
        with pytest.raises(ValueError):
            X.scaled(np.ones(2))

    def test_stack_differs_from_single(self):
        assert GradedPoly.stack([X]) != X
