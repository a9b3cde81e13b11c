"""Complex polynomial algebra in centered coordinates, over dense coefficient vectors.

Polynomials live in coordinates X = x - center.  A polynomial of degree at
most ``cap`` in ``dim`` variables is stored as one complex128 vector over
the graded-lex monomial basis up to ``cap``, in the order of
:func:`monomials_up_to`: every monomial of degree 0, then of degree 1, and
so on.  The homogeneous layer of each degree is therefore one contiguous
slice, and truncation keeps a prefix.  :class:`HomogeneousPoly` is such a
slice on its own.

A vector may carry one leading stack axis: ``vec`` of shape ``(n, size)``
holds ``n`` polynomials of one ``dim`` and ``cap`` (a stack), built with
:meth:`GradedPoly.stack` and split again with :meth:`GradedPoly.rows`.
The ring and grading kernels act along the last axis, so products (stack
by stack or one polynomial by a stack), derivatives, truncation, layers,
scaling (by one factor, or by one factor per row), ``+``, ``-`` and shifts
treat each row as the one-row kernel would, bit for bit: no sum ever mixes
rows, and each row's sums run in the same order as for a single
polynomial.  The accessors ``coeffs``, ``degree``, ``max_abs`` and
``bool`` answer for the stack as a whole: the monomials non-zero in any
row (each mapped to the tuple of its row values), the highest row degree,
the largest magnitude and whether any row is non-zero; ``row_max_abs``
gives the largest magnitude of each row.
Evaluation of a stack gives one column per row; records are written for
single polynomials and read back for a whole stack at once
(:func:`records_stack`), and a stack never equals a single polynomial.

Sparse input has one constructor: ``GradedPoly(dim, {exponents: value})``,
``HomogeneousPoly`` and :func:`records_stack` all place their terms with
:func:`_scatter`, under one exponent rule, so equal terms give equal bits.

The kernels are gathers over index tables that depend only on the
dimension and the degrees involved.  Each table is built once, with numpy,
and cached:

* per ``(dim, cap)``: the one table of monomials, which every other table
  and :func:`monomials_up_to` read: the exponent array, the degree of each
  entry and a rank from exponents to positions, counted from the sizes of
  the spaces in fewer variables (no table indexed by all exponent tuples);
* per ``(dim, low_a, cap_a, low_b, cap_b, bound)``: the term pairs
  ``(ia, ib)`` of a truncated product whose degrees sum to at most the
  bound, each factor at or above its operand's lowest layer that is
  non-zero in some row, and the position of each pair's product.  A
  product is ``a[ia] * b[ib]`` reduced with ``np.bincount``, so pairs the
  bound discards are never visited, and neither are pairs with a factor in
  an all-zero low layer.  Such a pair multiplies an exact zero, and the
  bits of every finite result are those of the full table.  The exception
  is a non-finite factor: ``0 * inf`` and ``0 * nan`` are NaN, and the
  full table forms them at the skipped pairs, so a coefficient that the
  full table makes NaN may come out finite or infinite here;
* per ``(dim, cap, index)``: the source positions and falling-factorial
  factors of a derivative, which is one gather and scale;
* per ``(dim, cap)``: the pairs and binomials of the re-expansion about a
  shifted origin;
* per ``(dim, cap)``: each monomial's parent, with one power fewer, and the
  axis that leads to it, from which the Vandermonde matrix is built.

Evaluation is a Vandermonde matrix times the vector, one matrix-vector
product per row of a stack (one matrix-matrix product would round
differently).  :func:`evaluate_each` evaluates several polynomials at one
point set from one matrix, built at their largest cap: a column depends
only on its monomial, so each polynomial takes the prefix of its size and
gets the bits of its own evaluation.  Sums over term pairs run in
graded-lex pair order.  Every stored vector is read-only and every
operation allocates a fresh value, so polynomials are safe to share
across concurrent tasks.
"""
from __future__ import annotations

import math
import reprlib
from functools import lru_cache
from itertools import chain
from types import MappingProxyType
from typing import Iterable, Mapping, NamedTuple, Sequence, Sized

import numpy as np

from .serialize import integers, reals

MultiIndex = tuple[int, ...]

Scalar = complex | float | int

# The most coefficients a sparse constructor stores per polynomial (1 MiB of
# complex128): degree 360 in two dimensions, 71 in three.  Built phases of
# degree 20 in three dimensions need 1771.
MAX_COEFFICIENTS = 2**16


def monomials_up_to(dim: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of total degree <= degree, graded-lex ordered."""
    return list(_basis(dim, degree).monomials)


def monomials_of_degree(dim: int, degree: int) -> list[MultiIndex]:
    """All exponent tuples of one total degree, graded-lex ordered."""
    return list(_basis(dim, degree).monomials[space_dimension(dim, degree - 1):])


def space_dimension(dim: int, degree: int) -> int:
    """Dimension of the polynomials of total degree <= degree."""
    if degree < 0:
        return 0
    return math.comb(degree + dim, dim)


def layer_dimension(dim: int, degree: int) -> int:
    """Dimension of the homogeneous polynomials of one total degree."""
    if degree < 0:
        return 0
    return math.comb(degree + dim - 1, dim - 1)


# -- cached index tables ---------------------------------------------------
#
# The caches are unbounded: their keys are a dimension and a few degrees, so
# a run holds one table per combination of degrees it uses.


def _frozen(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


_EMPTY = _frozen(np.zeros(0, dtype=complex))


class _Basis(NamedTuple):
    """The graded-lex monomials of degree <= cap in one dimension."""

    monomials: tuple[MultiIndex, ...]
    exponents: np.ndarray  # (size, dim)
    degrees: np.ndarray  # (size,)
    below: np.ndarray  # below[m, r]: the monomials of degree < r in m variables, r <= cap + 1

    def rank(self, exponents: np.ndarray) -> np.ndarray:
        """Positions of exponent rows, each of total degree <= cap.

        A row e of degree d sits at the last position of degree d, less the
        monomials of degree d after it in lex order.  For each axis k > 0,
        those that agree with e before axis k - 1 and are larger there are
        the ones whose entries from axis k on, in dim - k variables, have a
        degree below e's own there, r_k: ``below[dim - k, r_k]`` of them.
        """
        dim, width = exponents.shape[1], self.below.shape[1]
        below = self.below.ravel()
        tail, later = np.zeros(len(exponents), dtype=np.int64), 0
        for k in range(dim - 1, 0, -1):
            tail += exponents[:, k]
            later = later + below.take(tail + (dim - k) * width)
        tail += exponents[:, 0]
        return below.take(tail + 1 + dim * width) - 1 - later


@lru_cache(maxsize=None)
def _basis(dim: int, cap: int) -> _Basis:
    """The one enumeration of monomials: every tuple of degree <= cap, graded-lex.

    The tuples are grown one axis at a time, each entry up to the degree
    the earlier ones leave, which lists them in lex order; a stable sort by
    degree then makes the order graded-lex.  Nothing larger than the
    basis is built.
    """
    cap = max(cap, -1)  # every negative cap has no monomials
    exponents = np.zeros((1, 0), dtype=np.int64)
    for _ in range(dim):
        choices = cap + 1 - exponents.sum(axis=1)
        parent = np.repeat(np.arange(len(exponents)), choices)
        entry = np.arange(len(parent)) - np.repeat(np.cumsum(choices) - choices, choices)
        exponents = np.column_stack((exponents[parent], entry))
    exponents = exponents[np.argsort(exponents.sum(axis=1), kind="stable")]
    below = [[space_dimension(m, r - 1) for r in range(cap + 2)] for m in range(dim + 1)]
    return _Basis(
        tuple(map(tuple, exponents.tolist())),
        _frozen(exponents),
        _frozen(exponents.sum(axis=1)),
        _frozen(np.array(below, dtype=np.int64)),
    )


@lru_cache(maxsize=None)
def _product_table(
    dim: int, low_a: int, cap_a: int, low_b: int, cap_b: int, top: int
) -> tuple[np.ndarray, ...]:
    """Pairs (ia, ib) with deg a in [low_a, cap_a], deg b in [low_b, cap_b] and
    deg a + deg b <= top, ia-major, and each product's position."""
    a, b = _basis(dim, cap_a), _basis(dim, cap_b)
    start_a, start_b = space_dimension(dim, low_a - 1), space_dimension(dim, low_b - 1)
    ia, ib = np.nonzero(a.degrees[start_a:, None] + b.degrees[None, start_b:] <= top)
    ia, ib = ia + start_a, ib + start_b
    out = _basis(dim, top).rank(a.exponents[ia] + b.exponents[ib])
    return _frozen(ia), _frozen(ib), _frozen(out)


@lru_cache(maxsize=None)
def _derivative_table(dim: int, cap: int, index: MultiIndex) -> tuple[np.ndarray, np.ndarray]:
    """Gather table of D^index from degree <= cap to degree <= cap - |index|.

    Coefficient i of the derivative is ``factor[i] * vec[source[i]]``;
    returns the read-only arrays ``(source, factor)``.
    """
    source = _basis(dim, cap - sum(index)).exponents + np.array(index, dtype=np.int64)
    factor = np.ones(len(source))
    for axis, k in enumerate(index):
        for step in range(k):
            factor *= source[:, axis] - step
    return _frozen(_basis(dim, cap).rank(source)), _frozen(factor)


@lru_cache(maxsize=None)
def _shift_table(dim: int, cap: int) -> tuple[np.ndarray, ...]:
    """Pairs (ia, ib) with exponent b <= exponent a, ia-major, their a - b and binomials."""
    exponents = _basis(dim, cap).exponents
    ia, ib = np.nonzero(np.all(exponents[None, :, :] <= exponents[:, None, :], axis=2))
    pascal = np.array([[math.comb(n, k) for k in range(cap + 1)] for n in range(cap + 1)])
    binomial = np.prod(pascal[exponents[ia], exponents[ib]], axis=1).astype(float)
    return _frozen(ia), _frozen(ib), _frozen(exponents[ia] - exponents[ib]), _frozen(binomial)


@lru_cache(maxsize=None)
def _variable_positions(dim: int) -> np.ndarray:
    """Positions of X_0, ..., X_{dim-1} among the monomials of degree <= 1."""
    return _frozen(_basis(dim, 1).rank(np.eye(dim, dtype=np.int64)))


@lru_cache(maxsize=None)
def _parent_table(dim: int, cap: int) -> tuple[np.ndarray, np.ndarray]:
    """Each monomial's parent, with one power fewer on its first non-zero axis, and that axis.

    Returns the parents' positions and the axes; the constant monomial is its
    own parent along axis 0.
    """
    exponents = _basis(dim, cap).exponents
    axes = np.argmax(exponents > 0, axis=1)
    parents = np.maximum(exponents - (np.arange(dim) == axes[:, None]), 0)
    return _frozen(_basis(dim, cap).rank(parents)), _frozen(axes)


def _vandermonde(dim: int, cap: int, points: np.ndarray) -> np.ndarray:
    """Rows: points; columns: the graded-lex monomials of degree <= cap at each point.

    Column 0 is 1 and every other column is its parent's column times one
    coordinate (:func:`_parent_table`), so a monomial is the product of its
    coordinates from the last axis to the first, one multiply at a time,
    with no ``pow``: one gather and one multiply per degree layer.  Built
    one contiguous column per monomial and returned transposed; a column
    depends only on its monomial, so a lower cap's matrix is a prefix.
    """
    parents, axes = _parent_table(dim, cap)
    columns = np.empty((len(parents), len(points)), dtype=points.dtype)
    columns[:1] = 1
    coords = np.ascontiguousarray(points.T)
    for degree in range(1, cap + 1):
        start, stop = space_dimension(dim, degree - 1), space_dimension(dim, degree)
        np.multiply(columns[parents[start:stop]], coords[axes[start:stop]], out=columns[start:stop])
    return columns.T


def evaluate_each(
    polys: Sequence["GradedPoly"], points: Sequence[Sequence[Scalar]] | np.ndarray
) -> list[np.ndarray]:
    """Values of each polynomial (single: (n,); stack of r rows: (n, r)) at (n, dim) points.

    One Vandermonde matrix is built, at the largest cap.  Each polynomial
    takes the prefix of its own size as one row-major complex copy, the
    operand numpy's product would otherwise copy once per row, multiplies
    it one matrix-vector product per row, and gets the bits of its own
    evaluation.
    """
    dim = polys[0].dim
    if any(poly.dim != dim for poly in polys):
        raise ValueError("polynomials evaluated together must share one dimension")
    points = _as_points(points, dim)
    matrix = _vandermonde(dim, max(poly.cap for poly in polys), points)
    out = []
    for poly in polys:
        columns = matrix[:, : poly.vec.shape[-1]].astype(complex, order="C")
        if poly.vec.ndim == 1:
            out.append(columns @ poly.vec)
            continue
        values = np.empty((len(points), len(poly.vec)), dtype=complex)
        for i, row in enumerate(poly.vec):
            values[:, i] = columns @ row
        out.append(values)
    return out


def _as_points(points: Sequence[Sequence[Scalar]] | np.ndarray, dim: int) -> np.ndarray:
    points = np.asarray(points)
    if points.ndim != 2 or points.shape[1] != dim:
        raise ValueError(f"points must have shape (n, {dim}), got {points.shape}")
    return points.astype(complex if np.iscomplexobj(points) else float)


def _reduce(positions: np.ndarray, terms: np.ndarray, size: int) -> np.ndarray:
    """Complex sums of terms by position along the last axis, in the order listed.

    A stack of term rows is one ``bincount`` over positions offset by
    ``size`` per row, so each row is summed alone and in its own order.
    """
    if terms.ndim > 1:
        rows = len(terms)
        positions = (positions + size * np.arange(rows)[:, None]).ravel()
        return _reduce(positions, terms.ravel(), rows * size).reshape(rows, size)
    out = np.empty(size, dtype=complex)
    out.real = np.bincount(positions, terms.real, size)
    out.imag = np.bincount(positions, terms.imag, size)
    return out


def _padded(vec: np.ndarray, size: int) -> np.ndarray:
    if vec.shape[-1] == size:
        return vec
    out = np.zeros(vec.shape[:-1] + (size,), dtype=complex)
    out[..., : vec.shape[-1]] = vec
    return out


def _gather(vec: np.ndarray, index: np.ndarray) -> np.ndarray:
    """``vec[..., index]``; a single vector takes numpy's faster one-axis form."""
    return vec[index] if vec.ndim == 1 else vec[:, index]


def _times(left: np.ndarray, right: np.ndarray) -> np.ndarray:
    """Elementwise product; a single operand meets a stack as a stack of one row.

    numpy multiplies a one-element vector by a one-element stack with another
    complex kernel, and other rounding, than two one-element vectors; with
    equal ranks every row gets the one-row result.
    """
    if left.ndim != right.ndim:
        left, right = np.atleast_2d(left), np.atleast_2d(right)
    return left * right


def _scale(vec: np.ndarray, factor: "Scalar | np.ndarray") -> np.ndarray:
    """``vec`` times a scalar, or each row of a stack times its entry of an ``(n,)`` array."""
    if getattr(factor, "ndim", 0) == 0:
        return vec * complex(factor)
    factor = np.asarray(factor, dtype=complex)
    if factor.shape != vec.shape[:-1]:
        raise ValueError(f"need one factor per row: {factor.shape} for {vec.shape[:-1]}")
    return vec * factor[:, None]


def _zeros(vec: np.ndarray, size: int = 0) -> np.ndarray:
    """Zero coefficients, ``size`` per row, with the stack axis of ``vec``."""
    return np.zeros(vec.shape[:-1] + (size,), dtype=complex)


def _lowest_layer(dim: int, vec: np.ndarray, cap: int) -> int:
    """The lowest layer, up to ``cap``, that is non-zero in some row; cap + 1 if none is.

    Checked upward from layer 0, so the usual answer, 0, costs one look at
    the constant terms.
    """
    start = 0
    for degree in range(cap + 1):
        stop = start + layer_dimension(dim, degree)
        if np.count_nonzero(vec[..., start:stop]):
            return degree
        start = stop
    return cap + 1


def _cap_of(dim: int, size: int) -> int:
    cap = -1
    while space_dimension(dim, cap) < size:
        cap += 1
    if space_dimension(dim, cap) != size:
        raise ValueError(f"{size} coefficients fill no degree cap in dimension {dim}")
    return cap


# -- polynomials -----------------------------------------------------------


class _Poly:
    """Shared read-only storage: ``dim`` and one complex128 coefficient vector ``vec``."""

    __slots__ = ("dim", "vec", "_coeffs")
    __hash__ = None  # type: ignore[assignment]

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable")

    def _monomials(self) -> Sequence[MultiIndex]:
        raise NotImplementedError

    def _support(self) -> np.ndarray:
        """Positions non-zero in any row, ascending."""
        return np.flatnonzero(self.vec if self.vec.ndim == 1 else self.vec.any(axis=0))

    @property
    def coeffs(self) -> Mapping[MultiIndex, complex]:
        """Read-only mapping of the non-zero terms, graded-lex ordered.

        On a stack, each monomial non-zero in some row maps to the tuple of
        its values in every row.
        """
        if self._coeffs is None:
            nonzero = self._support()
            monomials = self._monomials()
            values = self.vec[..., nonzero]
            values = values.tolist() if values.ndim == 1 else list(map(tuple, values.T.tolist()))
            terms = dict(zip([monomials[i] for i in nonzero], values))
            object.__setattr__(self, "_coeffs", MappingProxyType(terms))
        return self._coeffs

    def __bool__(self) -> bool:
        return bool(self.vec.any())

    def __neg__(self):
        return self.scaled(-1)

    def __mul__(self, factor: Scalar):
        if isinstance(factor, (int, float, complex)):
            return self.scaled(factor)
        return NotImplemented

    __rmul__ = __mul__

    def max_abs(self) -> float:
        return float(np.abs(self.vec).max()) if self.vec.size else 0.0

    def row_max_abs(self) -> np.ndarray:
        """Largest magnitude of each row of a stack; a 0-d array for one polynomial."""
        return np.abs(self.vec).max(axis=-1, initial=0.0)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.dim}, {dict(self.coeffs)!r})"


def _graded(dim: int, cap: int, vec: np.ndarray) -> "GradedPoly":
    """Unvalidated constructor for results of the kernels; takes ownership of vec."""
    poly = object.__new__(GradedPoly)
    poly.__post_init__(dim, cap, vec)
    return poly


def _homogeneous(dim: int, degree: int, vec: np.ndarray) -> "HomogeneousPoly":
    poly = object.__new__(HomogeneousPoly)
    poly.__post_init__(dim, degree, vec)
    return poly


class HomogeneousPoly(_Poly):
    """One graded layer: the slice of a graded-lex vector at one total degree."""

    __slots__ = ("degree",)

    def __init__(self, dim: int, degree: int, coeffs: Mapping[MultiIndex, Scalar]) -> None:
        """Layer of the terms ``{exponents: value}``, all non-zero ones of this degree."""
        if degree < 0:
            raise ValueError("degree must be non-negative")
        poly = GradedPoly(dim, coeffs)
        off = np.flatnonzero((poly.vec != 0) & (_basis(dim, poly.cap).degrees != degree))
        if off.size:
            index = poly._monomials()[off[0]]
            raise ValueError(f"exponent {index} has degree {sum(index)}, expected {degree}")
        self.__post_init__(dim, degree, poly.layer(degree).vec)

    def __post_init__(self, dim: int, degree: int, vec: np.ndarray) -> None:
        """Every constructor ends here: store the fields, make the vector read-only."""
        vec.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "_coeffs", None)

    @classmethod
    def zero(cls, dim: int, degree: int) -> "HomogeneousPoly":
        if dim < 1 or degree < 0:
            raise ValueError("need dimension >= 1 and degree >= 0")
        return _homogeneous(dim, degree, np.zeros(layer_dimension(dim, degree), dtype=complex))

    @classmethod
    def from_vector(cls, dim: int, degree: int, vec: Sequence[Scalar]) -> "HomogeneousPoly":
        """Layer from its coefficients in graded-lex order; the values are copied.

        A two-dimensional ``vec`` gives a stack of layers, one per row.
        """
        if dim < 1 or degree < 0:
            raise ValueError("need dimension >= 1 and degree >= 0")
        vec = np.array(vec, dtype=complex)
        if vec.ndim not in (1, 2) or vec.shape[-1] != layer_dimension(dim, degree):
            raise ValueError(
                f"layer {degree} in dimension {dim} needs "
                f"{layer_dimension(dim, degree)} coefficients"
            )
        return _homogeneous(dim, degree, vec)

    def __reduce__(self):
        return (HomogeneousPoly.from_vector, (self.dim, self.degree, self.vec))

    def _monomials(self) -> Sequence[MultiIndex]:
        return _basis(self.dim, self.degree).monomials[space_dimension(self.dim, self.degree - 1):]

    def _combine(self, other: "HomogeneousPoly", op: np.ufunc) -> "HomogeneousPoly":
        """``op`` of the two coefficient vectors of layers of one dimension and degree."""
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        if other.dim != self.dim or other.degree != self.degree:
            raise ValueError("layers must share dimension and degree")
        return _homogeneous(self.dim, self.degree, op(self.vec, other.vec))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, HomogeneousPoly):
            return NotImplemented
        return (
            self.dim == other.dim
            and self.degree == other.degree
            and bool(np.array_equal(self.vec, other.vec))
        )

    def __add__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, np.add)

    def __sub__(self, other: "HomogeneousPoly") -> "HomogeneousPoly":
        return self._combine(other, np.subtract)

    def scaled(self, factor: "Scalar | np.ndarray") -> "HomogeneousPoly":
        return _homogeneous(self.dim, self.degree, _scale(self.vec, factor))

    def as_graded(self) -> "GradedPoly":
        vec = _zeros(self.vec, size=space_dimension(self.dim, self.degree))
        vec[..., space_dimension(self.dim, self.degree - 1):] = self.vec
        return _graded(self.dim, self.degree, vec)


class GradedPoly(_Poly):
    """Polynomial of degree <= cap, viewed as the direct sum of its homogeneous layers.

    ``vec`` holds the coefficients of every monomial of degree <= ``cap`` in
    graded-lex order; layers above the true degree may be zero.
    """

    __slots__ = ("cap",)

    def __init__(self, dim: int, coeffs: Mapping[MultiIndex, Scalar]) -> None:
        """Polynomial of the terms ``{exponents: value}``, read by :func:`_scatter`."""
        values = np.fromiter(map(complex, coeffs.values()), complex, len(coeffs))
        vec, caps = _scatter(dim, list(coeffs), values, [len(coeffs)], None)
        self.__post_init__(dim, int(caps[0]), vec[0])

    def __post_init__(self, dim: int, cap: int, vec: np.ndarray) -> None:
        """Every constructor ends here: store the fields, make the vector read-only."""
        vec.setflags(write=False)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "cap", cap)
        object.__setattr__(self, "vec", vec)
        object.__setattr__(self, "_coeffs", None)

    # -- construction -------------------------------------------------

    @classmethod
    def zero(cls, dim: int) -> "GradedPoly":
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        return _graded(dim, -1, _EMPTY)

    @classmethod
    def constant(cls, dim: int, value: Scalar) -> "GradedPoly":
        zero, value = cls.zero(dim), complex(value)
        return zero if value == 0 else _graded(dim, 0, np.array([value]))

    @classmethod
    def variable(cls, dim: int, axis: int) -> "GradedPoly":
        if not 0 <= axis < dim:
            raise ValueError(f"axis {axis} out of range for dimension {dim}")
        return cls.linear(dim, [1.0 if i == axis else 0.0 for i in range(dim)])

    @classmethod
    def monomial(cls, dim: int, index: MultiIndex, value: Scalar = 1.0) -> "GradedPoly":
        return cls(dim, {tuple(index): complex(value)})

    @classmethod
    def linear(cls, dim: int, gradient: Sequence[Scalar]) -> "GradedPoly":
        """sum_i gradient[i] * X_i, of degree cap 1, with a zero constant term."""
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        if len(gradient) != dim:
            raise ValueError(f"need {dim} linear coefficients, got {len(gradient)}")
        vec = np.zeros(dim + 1, dtype=complex)
        vec[_variable_positions(dim)] = gradient
        return _graded(dim, 1, vec)

    @classmethod
    def from_vector(cls, dim: int, vec: Sequence[Scalar]) -> "GradedPoly":
        """Polynomial from graded-lex coefficients of every monomial up to a degree cap.

        The length of ``vec`` must be ``space_dimension(dim, cap)`` for some
        cap; the values are copied.  A two-dimensional ``vec`` gives a stack,
        one polynomial per row.
        """
        if dim < 1:
            raise ValueError("dimension must be at least 1")
        vec = np.array(vec, dtype=complex)
        if vec.ndim not in (1, 2):
            raise ValueError("coefficients must form one vector or one row per polynomial")
        return _graded(dim, _cap_of(dim, vec.shape[-1]), vec)

    @classmethod
    def stack(cls, polys: Sequence["GradedPoly"]) -> "GradedPoly":
        """Stack of single polynomials of one dimension, padded to the largest cap."""
        if not polys:
            raise ValueError("need at least one polynomial to stack")
        dim = polys[0].dim
        if any(p.dim != dim or p.vec.ndim != 1 for p in polys):
            raise ValueError("can only stack single polynomials of one dimension")
        cap = max(p.cap for p in polys)
        size = space_dimension(dim, cap)
        return _graded(dim, cap, np.array([_padded(p.vec, size) for p in polys]))

    def rows(self) -> tuple["GradedPoly", ...]:
        """The polynomials of a stack, in order, each at the stack's cap; (self,) if single."""
        if self.vec.ndim == 1:
            return (self,)
        return tuple(_graded(self.dim, self.cap, row) for row in self.vec)

    def __reduce__(self):
        return (GradedPoly.from_vector, (self.dim, self.vec))

    def _monomials(self) -> Sequence[MultiIndex]:
        return _basis(self.dim, self.cap).monomials

    # -- ring operations ----------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if other.dim != self.dim or other.vec.shape[:-1] != self.vec.shape[:-1]:
            return False
        long, short = (self.vec, other.vec) if self.cap >= other.cap else (other.vec, self.vec)
        size = short.shape[-1]
        return bool(np.array_equal(long[..., :size], short) and not long[..., size:].any())

    def _combine(self, other: "GradedPoly", op: np.ufunc) -> "GradedPoly":
        """``op`` of the two coefficient vectors, padded to the larger cap."""
        if not isinstance(other, GradedPoly):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        cap = max(self.cap, other.cap)
        size = space_dimension(self.dim, cap)
        return _graded(self.dim, cap, op(_padded(self.vec, size), _padded(other.vec, size)))

    def __add__(self, other: "GradedPoly") -> "GradedPoly":
        return self._combine(other, np.add)

    def __sub__(self, other: "GradedPoly") -> "GradedPoly":
        return self._combine(other, np.subtract)

    def scaled(self, factor: "Scalar | np.ndarray") -> "GradedPoly":
        """Times a scalar; an ``(n,)`` array scales row i of an n-row stack by its entry i."""
        return _graded(self.dim, self.cap, _scale(self.vec, factor))

    def __mul__(self, other: "GradedPoly | Scalar") -> "GradedPoly":
        if isinstance(other, GradedPoly):
            return self.mul_truncated(other, None)
        return _Poly.__mul__(self, other)

    def mul_truncated(self, other: "GradedPoly", bound: int | None) -> "GradedPoly":
        """Product keeping only layers of total degree <= bound (None: exact)."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        top = self.cap + other.cap if bound is None else min(bound, self.cap + other.cap)
        if self.cap < 0 or other.cap < 0 or top < 0:
            return _graded(self.dim, -1, _zeros(max(self.vec, other.vec, key=np.ndim)))
        cap_a, cap_b = min(self.cap, top), min(other.cap, top)
        low_a = _lowest_layer(self.dim, self.vec, cap_a)
        low_b = _lowest_layer(self.dim, other.vec, cap_b)
        ia, ib, out = _product_table(self.dim, low_a, cap_a, low_b, cap_b, top)
        terms = _times(_gather(self.vec, ia), _gather(other.vec, ib))
        return _graded(self.dim, top, _reduce(out, terms, space_dimension(self.dim, top)))

    # -- grading ------------------------------------------------------

    @property
    def degree(self) -> int:
        """Total degree (of the highest row of a stack); -1 for the zero polynomial."""
        nonzero = self._support()
        return int(_basis(self.dim, self.cap).degrees[nonzero[-1]]) if nonzero.size else -1

    def truncate(self, bound: int) -> "GradedPoly":
        """Keep layers 0..bound; negative bounds give the zero polynomial."""
        if bound >= self.cap:
            return self
        cap = max(bound, -1)
        return _graded(self.dim, cap, self.vec[..., : space_dimension(self.dim, cap)])

    def layer(self, degree: int) -> HomogeneousPoly:
        if degree < 0:
            raise ValueError("degree must be non-negative")
        size = layer_dimension(self.dim, degree)
        if degree > self.cap:
            return _homogeneous(self.dim, degree, _zeros(self.vec, size=size))
        start = space_dimension(self.dim, degree - 1)
        return _homogeneous(self.dim, degree, self.vec[..., start: start + size])

    # -- calculus -----------------------------------------------------

    def derive(self, index: MultiIndex) -> "GradedPoly":
        """Mixed partial derivative with multiplicities given by the exponent tuple."""
        index = tuple(index)
        if len(index) != self.dim:
            raise ValueError("dimension mismatch")
        if min(index) < 0:
            raise ValueError(f"negative derivative order in {index}")
        cap = self.cap - sum(index)
        if cap < 0:
            return _graded(self.dim, -1, _zeros(self.vec))
        source, factor = _derivative_table(self.dim, self.cap, index)
        return _graded(self.dim, cap, _gather(self.vec, source) * factor)

    def partial(self, axis: int) -> "GradedPoly":
        return self.derive(tuple(1 if i == axis else 0 for i in range(self.dim)))

    def gradient(self) -> tuple["GradedPoly", ...]:
        return tuple(self.partial(i) for i in range(self.dim))

    def laplacian(self) -> "GradedPoly":
        out = GradedPoly.zero(self.dim)
        for i in range(self.dim):
            out = out + self.derive(tuple(2 if k == i else 0 for k in range(self.dim)))
        return out

    def hessian_entry(self, i: int, j: int) -> "GradedPoly":
        index = [0] * self.dim
        index[i] += 1
        index[j] += 1
        return self.derive(tuple(index))

    # -- evaluation and rebasing ---------------------------------------

    def evaluate(self, point: Sequence[Scalar]) -> complex:
        if len(point) != self.dim:
            raise ValueError("dimension mismatch")
        return complex(self.evaluate_many([point])[0])

    def evaluate_many(self, points: Sequence[Sequence[Scalar]] | np.ndarray) -> np.ndarray:
        """Values at the rows of an (n, dim) array of points, as a complex vector.

        A stack of r rows gives an (n, r) array; column i is row i's
        one-polynomial result, bit for bit.  The one-polynomial call of
        :func:`evaluate_each`.
        """
        return evaluate_each([self], points)[0]

    def shifted(self, offset: Sequence[Scalar]) -> "GradedPoly":
        """Re-expand around a shifted origin: returns Q with Q(X) = P(X + offset)."""
        offset = _as_points([offset], self.dim)[0]
        if self.cap < 0:
            return self
        ia, ib, gap, binomial = _shift_table(self.dim, self.cap)
        terms = _times(_gather(self.vec, ia), binomial * np.prod(offset**gap, axis=1))
        return _graded(self.dim, self.cap, _reduce(ib, terms, self.vec.shape[-1]))

    # -- serialization --------------------------------------------------

    def to_records(self) -> list[dict]:
        """Graded-lex ordered list of {exponents, re, im} records."""
        return [
            {"exponents": list(j), "re": c.real, "im": c.imag}
            for j, c in self.coeffs.items()
        ]

    @classmethod
    def from_records(
        cls, dim: int, records: Iterable[Mapping], bound: int | None = None
    ) -> "GradedPoly":
        """Inverse of :meth:`to_records`: the one-row case of :func:`records_stack`."""
        return records_stack(dim, [records], bound)[0].rows()[0]


def records_stack(
    dim: int, lists: Iterable[Iterable[Mapping]], bound: int | None = None
) -> tuple[GradedPoly, np.ndarray]:
    """Stack of the polynomials given as record lists, one row per list, and each row's cap.

    This reads :meth:`GradedPoly.to_records` back for every row at once:
    parts by :func:`~gpwlab.serialize.real`, terms by :func:`_scatter`.
    """
    lists = [list(row) for row in lists]
    records = [record for row in lists for record in row]
    if not set(map(type, records)) <= {dict}:
        for record in records:
            if not isinstance(record, Mapping):
                raise TypeError(f"a record must be an object, got {reprlib.repr(record)}")
    exponents = [record["exponents"] for record in records]
    re = reals([record["re"] for record in records], "re")
    values = np.column_stack([re, reals([record["im"] for record in records], "im")])
    counts = [len(row) for row in lists]
    vec, caps = _scatter(dim, exponents, values.view(complex)[:, 0], counts, bound)
    return _graded(dim, int(caps.max(initial=-1)), vec), caps


def _scatter(
    dim: int, exponents: list, values: np.ndarray, counts: Sequence[int], bound: int | None
) -> tuple[np.ndarray, np.ndarray]:
    """The one sparse constructor: coefficient rows, row i of the next ``counts[i]`` terms.

    Exponents follow :func:`~gpwlab.serialize.integers`, checked all at once;
    a negative entry, a scalar or a tuple of another length is refused, and a
    term above ``bound`` is refused before any storage is sized.  A
    monomial's first term is assigned and repeats add in term order; signed
    zeros survive, and a zero sum is stored as +0.  A term whose degree needs
    more than :data:`MAX_COEFFICIENTS` coefficients per row is refused before
    any storage is sized.  Each row's cap is that of its highest non-zero
    term; returns the rows, cut to the highest cap, and the caps.
    """
    if dim < 1:
        raise ValueError("dimension must be at least 1")
    try:
        fits = set(map(len, exponents)) <= {dim}
    except TypeError:
        fits = False
    if not fits:
        index = next(i for i in exponents if not isinstance(i, Sized) or len(i) != dim)
        raise ValueError(f"bad exponent tuple {reprlib.repr(index)} for dimension {dim}")
    flat = integers(list(chain.from_iterable(exponents)), "exponent").reshape(len(exponents), dim)
    negative = (flat < 0).any(axis=1)
    if negative.any():
        index = exponents[int(np.argmax(negative))]
        raise ValueError(f"bad exponent tuple {reprlib.repr(index)} for dimension {dim}")
    with np.errstate(over="ignore"):  # a sum beyond float range is inf, above any bound
        degrees = flat.sum(axis=1)
    degree = degrees.max(initial=-1.0)
    if bound is not None and degree > bound:
        raise ValueError(f"a record of degree {degree:.0f} exceeds the degree bound {bound}")
    if not degree < math.inf or space_dimension(dim, int(degree)) > MAX_COEFFICIENTS:
        index = exponents[int(np.argmax(degrees))]
        raise ValueError(
            f"exponent tuple {reprlib.repr(index)} needs more than {MAX_COEFFICIENTS} "
            f"coefficients in dimension {dim}"
        )
    cap = int(degree)

    size = space_dimension(dim, cap)
    rows = np.repeat(np.arange(len(counts)), counts)
    keys = rows * size + _basis(dim, cap).rank(flat.astype(np.int64))
    first = np.unique(keys, return_index=True)[1]
    out = np.zeros(len(counts) * size, dtype=complex)
    out[keys[first]] = values[first]
    repeat = np.ones(len(keys), dtype=bool)
    repeat[first] = False
    np.add.at(out, keys[repeat], values[repeat])
    out[out == 0] = 0
    vec = out.reshape(len(counts), size)
    caps = np.where(vec != 0, _basis(dim, cap).degrees, -1).max(axis=1, initial=-1)
    top = int(caps.max(initial=-1))
    return np.ascontiguousarray(vec[:, : space_dimension(dim, top)]), caps
