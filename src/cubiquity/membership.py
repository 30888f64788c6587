"""Lattice membership, Hermite forms and direct sums as functions.

``contains`` decides whether a vector lies in a lattice by reducing it
against the basis's Hermite form (``BasisMatrix.hnf``, built once per
matrix), ``hnf`` returns that form, and ``direct_sum`` builds the
block-diagonal basis of two lattices.  The CLI runs none of them, so they
sit apart from ``lattice``, which every call loads; their names still
resolve there and at the package's top level, from where this module is
imported on their first use.
"""

from __future__ import annotations

from operator import index
from typing import Sequence

from .errors import DimensionMismatch
from .lattice import BasisMatrix


def hnf(basis: BasisMatrix) -> BasisMatrix:
    """Hermite Normal Form of the basis (cached on the matrix)."""
    return basis.hnf


def contains(basis: BasisMatrix, x: Sequence[int]) -> bool:
    """True iff x lies in the sublattice spanned by the columns of basis.

    Subtracts multiples of the HNF columns, one coordinate at a time, to
    reach the HNF-box representative of x, which is 0 iff x is in L.
    """
    v = [index(a) for a in x]  # rejects floats, as BasisMatrix does
    n = basis.n
    if len(v) != n:
        raise DimensionMismatch(
            f"vector has dimension {len(v)}, lattice has dimension {n}")
    for j, col in enumerate(basis.hnf.columns):
        q = v[j] // col[j]
        if q:
            for i in range(j, n):
                v[i] -= q * col[i]
    return not any(v)


def direct_sum(b1: BasisMatrix, b2: BasisMatrix) -> BasisMatrix:
    """Block-diagonal basis of the direct sum of the two lattices."""
    m, n = b1.n, b2.n
    rows = [list(row) + [0] * n for row in b1.rows]
    rows += [[0] * m + list(row) for row in b2.rows]
    return BasisMatrix(rows)
