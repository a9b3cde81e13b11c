import numpy as np
import pytest

from gpwlab import layers
from gpwlab.frame import random_homogeneous
from gpwlab.layers import (
    PrincipalPart2,
    kernel_dimension,
    operator_matrix,
    solve_layer,
    split_layer,
)
from gpwlab.polycore import (
    HomogeneousPoly,
    _derivative_table,
    layer_dimension,
    monomials_of_degree,
    space_dimension,
)


def laplace2():
    return PrincipalPart2.laplace(2)


def convected_part(dim, rho0, mach0):
    coeffs = {}
    for i in range(dim):
        for j in range(i, dim):
            index = tuple((2 if i == j else 1) if k in (i, j) else 0 for k in range(dim))
            coeffs[index] = coeffs.get(index, 0j) - rho0 * mach0[i] * mach0[j] * (1 if i == j else 2)
    for i in range(dim):
        index = tuple(2 if k == i else 0 for k in range(dim))
        coeffs[index] = coeffs.get(index, 0j) + rho0
    return PrincipalPart2.build(dim, coeffs)


class TestSplitLayer:
    def test_first_layer_2d(self):
        split = split_layer(laplace2(), 0)
        assert set(split.free) == {(0, 2), (1, 1)}
        assert split.solvable == ((2, 0),)

    def test_second_layer_2d(self):
        split = split_layer(laplace2(), 1)
        assert set(split.free) == {(0, 3), (1, 2)}
        assert set(split.solvable) == {(2, 1), (3, 0)}

    def test_first_layer_3d(self):
        split = split_layer(PrincipalPart2.laplace(3), 0)
        assert set(split.free) == {(0, 0, 2), (0, 1, 1), (0, 2, 0), (1, 0, 1), (1, 1, 0)}
        assert split.solvable == ((2, 0, 0),)

    def test_blocks_partition_the_layer(self):
        for n in range(5):
            split = split_layer(laplace2(), n)
            assert len(split.free) + len(split.solvable) == layer_dimension(2, n + 2)
            assert not set(split.free) & set(split.solvable)

    def test_free_block_size_2d(self):
        # two free monomials per layer regardless of the layer index
        for n in range(6):
            assert len(split_layer(laplace2(), n).free) == 2


class TestSolveLayer:
    def test_constant_source(self):
        q = solve_layer(laplace2(), HomogeneousPoly(2, 0, {(0, 0): 1.0}))
        assert q.coeffs == {(2, 0): 0.5 + 0j}

    def test_off_pivot_linear_source(self):
        q = solve_layer(laplace2(), HomogeneousPoly(2, 1, {(0, 1): 1.0}))
        assert q.coeffs == {(2, 1): 0.5 + 0j}

    def test_pivot_linear_source(self):
        q = solve_layer(laplace2(), HomogeneousPoly(2, 1, {(1, 0): 1.0}))
        assert q.coeffs == {(3, 0): pytest.approx(1.0 / 6.0)}

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exactness_laplace(self, dim):
        rng = np.random.default_rng(99)
        part = PrincipalPart2.laplace(dim)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            b = random_homogeneous(rng, dim, n)
            q = solve_layer(part, b)
            back = part.apply(q.as_graded())
            assert (back - b.as_graded()).max_abs() <= 1e-12 * max(1.0, b.max_abs())

    @pytest.mark.parametrize("dim", [2, 3])
    def test_exactness_convected(self, dim):
        rng = np.random.default_rng(7)
        mach0 = (0.4, -0.3, 0.2)[:dim]
        part = convected_part(dim, 1.3, mach0)
        for _ in range(100):
            n = int(rng.integers(0, 9))
            b = random_homogeneous(rng, dim, n)
            q = solve_layer(part, b)
            back = part.apply(q.as_graded())
            assert (back - b.as_graded()).max_abs() <= 1e-12 * max(1.0, b.max_abs())

    def test_output_in_solvable_block(self):
        rng = np.random.default_rng(3)
        part = convected_part(2, 1.0, (0.5, 0.1))
        for n in range(6):
            b = random_homogeneous(rng, 2, n)
            q = solve_layer(part, b)
            free = set(split_layer(part, n).free)
            assert not set(q.coeffs) & free

    def test_zero_source(self):
        q = solve_layer(laplace2(), HomogeneousPoly.zero(2, 3))
        assert not q and q.degree == 5

    @pytest.mark.parametrize("dim", [2, 3])
    def test_stack_rows_equal_single_solves_bit_for_bit(self, dim):
        rng = np.random.default_rng(40 + dim)
        mach0 = (0.4 + 0.1j, -0.3, 0.2)[:dim]
        for part in (PrincipalPart2.laplace(dim), convected_part(dim, 1.3, mach0)):
            for n in range(7):
                for rows in (1, 2, 5):
                    size = layer_dimension(dim, n)
                    vec = rng.uniform(-1, 1, (rows, size)) + 1j * rng.uniform(-1, 1, (rows, size))
                    stacked = solve_layer(part, HomogeneousPoly.from_vector(dim, n, vec))
                    assert stacked.vec.shape == (rows, layer_dimension(dim, n + 2))
                    for row, solved in zip(vec, stacked.vec):
                        single = solve_layer(part, HomogeneousPoly.from_vector(dim, n, row))
                        assert single.vec.tobytes() == solved.tobytes()

    def test_parts_with_equal_content_share_inverses(self):
        rhs = HomogeneousPoly(3, 2, {(1, 1, 0): 1.0})
        solve_layer(PrincipalPart2.laplace(3), rhs)
        before = layers._layer_inverse.cache_info()
        again = solve_layer(PrincipalPart2.laplace(3), rhs)
        after = layers._layer_inverse.cache_info()
        assert (after.hits, after.misses) == (before.hits + 1, before.misses)
        assert again == solve_layer(PrincipalPart2.laplace(3), rhs)


class TestPivotSelection:
    def test_largest_diagonal_wins(self):
        part = PrincipalPart2.build(2, {(2, 0): 1.0, (0, 2): -3.0})
        assert part.pivot == 1

    def test_no_diagonal_rejected(self):
        with pytest.raises(ValueError):
            PrincipalPart2.build(2, {(1, 1): 1.0})

    def test_explicit_pivot_needs_nonzero_lead(self):
        with pytest.raises(ValueError):
            PrincipalPart2(2, {(0, 2): 1.0}, pivot=0)

    def test_non_second_order_exponent_rejected(self):
        with pytest.raises(ValueError):
            PrincipalPart2.build(2, {(1, 0): 1.0, (2, 0): 1.0})


class TestKernelOracle:
    def test_laplace_2d_kernel(self):
        # harmonic polynomials of degree <= p form a space of dimension 2p+1
        for p in range(2, 7):
            assert kernel_dimension(laplace2(), p) == 2 * p + 1

    def test_laplace_3d_kernel(self):
        for p in range(2, 5):
            assert kernel_dimension(PrincipalPart2.laplace(3), p) == (p + 1) ** 2

    def test_matrix_shape(self):
        m = operator_matrix(laplace2(), 4)
        assert m.shape == (6, 15)

    def test_free_count_matches_kernel(self):
        part = laplace2()
        for p in range(2, 7):
            free = 3 + sum(len(split_layer(part, n).free) for n in range(p - 1))
            assert free == kernel_dimension(part, p) == 2 * p + 1


def operator_matrix_reference(part, degree):
    """The per-derivative assembly that the identity-stack image replaced, kept as its oracle."""
    rows = space_dimension(part.dim, degree - 2)
    matrix = np.zeros((rows, space_dimension(part.dim, degree)), dtype=complex)
    for index, value in sorted(part.coeffs.items()):
        source, factor = _derivative_table(part.dim, degree, index)
        matrix[np.arange(rows), source] += value * factor
    return matrix


def layer_rows_reference(part, layer):
    """Row order and solvable positions of a layer inverse from tuple lists and a dict."""
    k = part.pivot
    rows = monomials_of_degree(part.dim, layer)
    order = sorted(range(len(rows)), key=lambda r: rows[r][k])
    target = {index: i for i, index in enumerate(monomials_of_degree(part.dim, layer + 2))}
    lifted = [tuple(e + 2 if axis == k else e for axis, e in enumerate(rows[r])) for r in order]
    return order, [target[index] for index in lifted]


PARTS = {
    "laplace-2d": lambda: laplace2(),
    "laplace-3d": lambda: PrincipalPart2.laplace(3),
    "convected-2d": lambda: convected_part(2, 1.3 + 0.2j, [0.3 - 0.1j, -0.2 + 0.05j]),
    "convected-3d": lambda: convected_part(3, 0.9 - 0.1j, [0.2 + 0.1j, -0.3, 0.1 - 0.2j]),
    "pivot-1": lambda: PrincipalPart2.build(2, {(2, 0): 1.0, (1, 1): 0.5j, (0, 2): -3.0}),
}


class TestPrincipalMatrixMatchesReference:
    @pytest.mark.parametrize("name", sorted(PARTS))
    def test_operator_matrix_bit_for_bit(self, name):
        part = PARTS[name]()
        for degree in range(-1, 9):
            got, want = operator_matrix(part, degree), operator_matrix_reference(part, degree)
            assert got.shape == want.shape and got.tobytes() == np.ascontiguousarray(want).tobytes()
            if degree >= 2:
                assert kernel_dimension(part, degree) == want.shape[1] - np.linalg.matrix_rank(want)

    @pytest.mark.parametrize("name", sorted(PARTS))
    def test_layer_rows_and_block(self, name):
        part = PARTS[name]()
        for layer in range(7):
            order, positions, columns = layers._layer_inverse(part._key, layer)
            want_order, want_positions = layer_rows_reference(part, layer)
            assert order.tolist() == want_order and positions.tolist() == want_positions
            start, lifted = space_dimension(part.dim, layer - 1), space_dimension(part.dim, layer + 1)
            block = operator_matrix_reference(part, layer + 2)[
                np.ix_(start + order, lifted + positions)
            ]
            assert np.allclose(block @ columns.T, np.eye(len(order)), atol=1e-12)
