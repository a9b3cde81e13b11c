"""Layer-by-layer inversion of order-two principal parts.

A principal part here is a constant-coefficient second-order operator
with at least one pure second derivative present.  The variable carrying
that derivative is the pivot: monomials of each homogeneous layer split
into a free block (pivot exponent 0 or 1) and a solvable block (pivot
exponent >= 2), and the operator restricted to the solvable block is
inverted by forward substitution in powers of the pivot variable.  The
inverse blocks are cached by the content of the principal part, so every
split with the same frozen part shares them.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Mapping

import numpy as np

from .polycore import (
    GradedPoly,
    HomogeneousPoly,
    MultiIndex,
    _basis,
    layer_dimension,
    monomials_of_degree,
    space_dimension,
)


def _pure_second(dim: int, axis: int) -> MultiIndex:
    return tuple(2 if i == axis else 0 for i in range(dim))


@dataclass(frozen=True)
class PrincipalPart2:
    """Constant-coefficient operator sum(c_j * D^j) over exponents of total degree 2."""

    dim: int
    coeffs: Mapping[MultiIndex, complex]
    pivot: int

    def __post_init__(self) -> None:
        clean: dict[MultiIndex, complex] = {}
        for index, value in self.coeffs.items():
            index = tuple(index)
            if len(index) != self.dim or sum(index) != 2 or any(e < 0 for e in index):
                raise ValueError(f"exponent {index!r} is not a second-order derivative")
            value = complex(value)
            if value != 0:
                clean[index] = value
        object.__setattr__(self, "coeffs", clean)
        if not 0 <= self.pivot < self.dim:
            raise ValueError("pivot out of range")
        if self.pivot_coefficient == 0:
            raise ValueError("pure second derivative in the pivot variable must be nonzero")
        # the content that determines the layer inverses of solve_layer
        object.__setattr__(self, "_key", (self.dim, self.pivot, tuple(sorted(clean.items()))))

    @property
    def pivot_coefficient(self) -> complex:
        return self.coeffs.get(_pure_second(self.dim, self.pivot), 0j)

    @classmethod
    def build(cls, dim: int, coeffs: Mapping[MultiIndex, complex]) -> "PrincipalPart2":
        """Validate coefficients and pick the pivot with the largest pure second derivative."""
        magnitudes = [abs(complex(coeffs.get(_pure_second(dim, k), 0))) for k in range(dim)]
        pivot = max(range(dim), key=lambda k: magnitudes[k])
        if magnitudes[pivot] == 0:
            raise ValueError("no variable carries a nonzero pure second derivative")
        return cls(dim, coeffs, pivot)

    @classmethod
    def laplace(cls, dim: int) -> "PrincipalPart2":
        return cls.build(dim, {_pure_second(dim, i): 1.0 for i in range(dim)})

    def apply(self, poly: GradedPoly) -> GradedPoly:
        out = GradedPoly.zero(self.dim)
        for index, value in sorted(self.coeffs.items()):
            out = out + poly.derive(index).scaled(value)
        return out


@dataclass(frozen=True)
class LayerSplit:
    """Disjoint monomial bases of one layer: free (pivot exponent 0/1) and solvable (>= 2)."""

    layer: int
    free: tuple[MultiIndex, ...]
    solvable: tuple[MultiIndex, ...]


def split_layer(part: PrincipalPart2, layer: int) -> LayerSplit:
    if layer < 0:
        raise ValueError("layer must be non-negative")
    monomials = monomials_of_degree(part.dim, layer + 2)
    free = tuple(j for j in monomials if j[part.pivot] <= 1)
    solvable = tuple(j for j in monomials if j[part.pivot] >= 2)
    return LayerSplit(layer, free, solvable)


def solve_layer(part: PrincipalPart2, rhs: HomogeneousPoly) -> HomogeneousPoly:
    """Invert the principal part on the solvable block of one layer.

    Returns the unique q of degree rhs.degree + 2, supported on monomials
    with pivot exponent >= 2, such that part.apply(q) == rhs; a stack of
    layers gives the stack of solutions.  Pair each monomial m of the layer
    with the solvable monomial m * t^2, t the pivot variable.  The image of
    m * t^2 is lead * (i+2)(i+1) * m, with lead the pure second-derivative
    coefficient in the pivot variable and i the pivot exponent of m, plus
    terms whose pivot exponent is i + 1 (one pivot derivative) or i + 2
    (none).  Ordered by pivot exponent, the block of the operator between the
    two bases is therefore lower triangular with that diagonal; its inverse
    comes from forward substitution, once per layer and principal part.  A
    solve forms the products of the right-hand side with the inverse's
    columns and sums them over the columns with :func:`_tree_sum`, so each
    row of a stack is summed alone and exactly as a single layer would be.
    """
    if rhs.dim != part.dim:
        raise ValueError("dimension mismatch")
    order, positions, columns = _layer_inverse(part._key, rhs.degree)
    need = rhs.vec[..., order].T  # (column, [row of the stack])
    if need.ndim > 1:
        columns = columns[:, None, :]
    solved = _tree_sum(need[..., None] * columns)
    q = np.zeros(rhs.vec.shape[:-1] + (layer_dimension(part.dim, rhs.degree + 2),), dtype=complex)
    q[..., positions] = solved
    return HomogeneousPoly.from_vector(part.dim, rhs.degree + 2, q)


def _tree_sum(terms: np.ndarray) -> np.ndarray:
    """Sum over the first axis by a fixed tree of elementwise additions, in place.

    Level by level, entry k + keep is added to entry k, keep the upper half
    of the length; the order depends only on the length of the first axis,
    never on the other axes, so no sum mixes rows or changes with the size
    of a stack.
    """
    while len(terms) > 1:
        keep = (len(terms) + 1) // 2
        terms[: len(terms) - keep] += terms[keep:]
        terms = terms[:keep]
    return terms[0]


@lru_cache(maxsize=128)
def _layer_inverse(key: tuple, layer: int) -> tuple[np.ndarray, ...]:
    """Row order, solvable positions in layer + 2 and the columns of the inverse block.

    ``key`` is a principal part's ``(dim, pivot, sorted coefficients)``.
    """
    dim, k, coeffs = key
    part = PrincipalPart2(dim, dict(coeffs), k)
    start = space_dimension(dim, layer - 1)
    rows = _basis(dim, layer).exponents[start:]
    order = np.argsort(rows[:, k], kind="stable")
    lifted = _basis(dim, layer + 2).rank(rows[order] + 2 * np.eye(dim, dtype=np.int64)[k])
    block = operator_matrix(part, layer + 2)[np.ix_(start + order, lifted)]
    positions = lifted - space_dimension(dim, layer + 1)
    inverse = np.zeros_like(block)
    identity = np.eye(len(rows), dtype=complex)
    for r in range(len(rows)):
        inverse[r] = (identity[r] - block[r, :r] @ inverse[:r]) / block[r, r]
    columns = np.ascontiguousarray(inverse.T)
    for array in (order, positions, columns):
        array.setflags(write=False)
    return order, positions, columns


def _images(part: PrincipalPart2, degree: int, columns: np.ndarray) -> np.ndarray:
    """Rows: the images under the principal part of the monomials of degree <= degree
    at ``columns``, in the graded-lex basis of degree <= degree - 2."""
    units = np.zeros((len(columns), space_dimension(part.dim, degree)), dtype=complex)
    units[np.arange(len(columns)), columns] = 1
    return part.apply(GradedPoly.from_vector(part.dim, units)).vec


def operator_matrix(part: PrincipalPart2, degree: int) -> np.ndarray:
    """Matrix of the principal part from degree <= degree to degree <= degree - 2,
    in graded-lex monomial bases."""
    return _images(part, degree, np.arange(space_dimension(part.dim, degree))).T


def kernel_dimension(part: PrincipalPart2, degree: int, tol: float = 1e-10) -> int:
    """Numerical null-space dimension of the principal part on degree <= degree."""
    matrix = operator_matrix(part, degree)
    if matrix.shape[0] == 0:
        return matrix.shape[1]
    singulars = np.linalg.svd(matrix, compute_uv=False)
    rank = int(np.sum(singulars > tol * singulars[0])) if singulars.size else 0
    return matrix.shape[1] - rank
