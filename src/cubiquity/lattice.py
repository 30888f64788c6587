"""Exact integer linear algebra over Z.

Everything here works with arbitrary-precision Python integers; there is no
floating point anywhere.  A full-rank sublattice of Z^n is represented by a
square matrix whose columns are basis vectors.
"""

from __future__ import annotations

import itertools
from functools import cached_property
from operator import index
from typing import Iterable, Iterator, Sequence

from .errors import DimensionMismatch, SingularMatrix

#: Default ceiling on the work of the two exponential searches, in
#: coordinate steps: n * (2^n + |det|) for the brute-force oracle (about
#: 2^n + |det| coset reductions of n coordinates each) and n * 2^n for the
#: Hajos search (at most 2^n prefix sets of n gcd checks each).
DEFAULT_RESOURCE_CAP = 2 ** 24

Vector = tuple[int, ...]


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant; all intermediate divisions are exact."""
    n = len(rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = m[k][k]
        for i in range(k + 1, n):
            row_i = m[i]
            row_k = m[k]
            head = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (row_i[j] * pivot - head * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * m[n - 1][n - 1]


class BasisMatrix:
    """An n x n integer matrix whose columns span a full-rank sublattice.

    Immutable; rank is checked on construction.  Entries are stored row-major
    to match the text file format, but the columns are the basis vectors.
    """

    def __init__(self, rows: Iterable[Iterable[int]]):
        # operator.index rejects floats; this library is exact
        rows = tuple(tuple(index(v) for v in row) for row in rows)
        n = len(rows)
        if n == 0:
            raise DimensionMismatch("a basis matrix needs at least one row")
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("basis matrix must be square")
        self._rows = rows
        if self.det == 0:
            raise SingularMatrix(f"columns are linearly dependent: {rows}")

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "BasisMatrix":
        n = len(columns)
        if any(len(c) != n for c in columns):
            raise DimensionMismatch("basis matrix must be square")
        return cls([[columns[j][i] for j in range(n)] for i in range(n)])

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        return self._rows

    @property
    def columns(self) -> tuple[Vector, ...]:
        n = self.n
        return tuple(tuple(self._rows[i][j] for i in range(n)) for j in range(n))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._rows)

    @cached_property
    def det(self) -> int:
        return _bareiss_det(self._rows)

    @cached_property
    def hnf(self) -> "BasisMatrix":
        return _hnf(self)

    def permute_rows(self, order: Sequence[int]) -> "BasisMatrix":
        return BasisMatrix([self._rows[i] for i in order])

    def __eq__(self, other: object) -> bool:
        return isinstance(other, BasisMatrix) and self._rows == other._rows

    def __hash__(self) -> int:
        return hash(self._rows)

    def __repr__(self) -> str:
        return f"BasisMatrix({[list(r) for r in self._rows]})"


def det(basis: BasisMatrix) -> int:
    """Exact determinant of the basis matrix."""
    return basis.det


def _hnf(basis: BasisMatrix) -> BasisMatrix:
    """Column-style Hermite Normal Form.

    Lower triangular with positive diagonal; in each row the entries left of
    the diagonal are reduced into [0, diagonal).  The result generates the
    same sublattice and is the unique such basis for a fixed row order.
    """
    n = basis.n
    cols = [list(c) for c in basis.columns]
    for r in range(n):
        for j in range(r + 1, n):
            b = cols[j][r]
            if b == 0:
                continue
            a = cols[r][r]
            x, y, g = _xgcd(a, b)
            a_g, b_g = a // g, b // g
            cr, cj = cols[r], cols[j]
            for i in range(r, n):
                u, v = cr[i], cj[i]
                cr[i] = x * u + y * v
                cj[i] = a_g * v - b_g * u
        if cols[r][r] == 0:
            raise SingularMatrix("matrix is not full rank")
        if cols[r][r] < 0:
            cols[r] = [-v for v in cols[r]]
        d = cols[r][r]
        for j in range(r):
            q = cols[j][r] // d
            if q:
                cj, cr = cols[j], cols[r]
                for i in range(r, n):
                    cj[i] -= q * cr[i]
    return BasisMatrix.from_columns(cols)


def hnf(basis: BasisMatrix) -> BasisMatrix:
    """Hermite Normal Form of the basis (cached on the matrix)."""
    return basis.hnf


def _membership_test(basis: BasisMatrix):
    """Return a fast predicate deciding membership in the lattice.

    Forward substitution against the HNF columns; every division must be
    exact, so the test is purely integral.
    """
    hcols = [list(c) for c in basis.hnf.columns]
    n = basis.n
    diag = [hcols[j][j] for j in range(n)]

    def member(x: Sequence[int]) -> bool:
        rem = list(x)
        for j in range(n):
            r = rem[j]
            if r % diag[j]:
                return False
            q = r // diag[j]
            if q:
                col = hcols[j]
                for i in range(j + 1, n):
                    rem[i] -= q * col[i]
        return True

    return member


def contains(basis: BasisMatrix, x: Sequence[int]) -> bool:
    """True iff x lies in the sublattice spanned by the columns of basis."""
    if len(x) != basis.n:
        raise DimensionMismatch(
            f"vector has dimension {len(x)}, lattice has dimension {basis.n}")
    return _membership_test(basis)(x)


def hnf_box(basis: BasisMatrix) -> Iterator[Vector]:
    """Lexicographic iterator over the fundamental box prod [0, H_ii).

    The box holds one representative of each coset of Z^n modulo the
    lattice, |det| points in all.
    """
    diag = [basis.hnf.rows[i][i] for i in range(basis.n)]
    return itertools.product(*(range(d) for d in diag))


def gram(vectors) -> tuple[Vector, ...]:
    """Symmetric matrix of pairwise dot products.

    Accepts any sequence of equal-length integer vectors, or an object with
    a ``vectors`` attribute holding one.
    """
    vecs = getattr(vectors, "vectors", vectors)
    vecs = [tuple(v) for v in vecs]
    if vecs and any(len(v) != len(vecs[0]) for v in vecs):
        raise DimensionMismatch("vectors must share one dimension")
    return tuple(
        tuple(sum(a * b for a, b in zip(u, v)) for v in vecs) for u in vecs)


def direct_sum(b1: BasisMatrix, b2: BasisMatrix) -> BasisMatrix:
    """Block-diagonal basis of the direct sum of the two lattices."""
    m, n = b1.n, b2.n
    rows = [list(row) + [0] * n for row in b1.rows]
    rows += [[0] * m + list(row) for row in b2.rows]
    return BasisMatrix(rows)
