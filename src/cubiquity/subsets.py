"""Subsets of Z^n and their combinatorial statistics.

A subset is an ordered list of n integer vectors in Z^n.  It carries no
independence requirement; it only becomes a basis when converted to a
BasisMatrix.  All indices in this module are 0-based.
"""

from __future__ import annotations

from operator import index
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch
from .lattice import BasisMatrix, Vector, gram


class Subset:
    """An ordered list of n vectors in Z^n (possibly empty, n = 0).

    Immutable and compared by value; the constructor turns every entry
    into an int and checks that there are n vectors of dimension n.
    """

    __slots__ = ("vectors",)
    __match_args__ = ("vectors",)
    vectors: tuple[Vector, ...]

    def __init__(self, vectors: Iterable[Sequence[int]]):
        vecs = tuple(tuple(index(x) for x in v) for v in vectors)
        if any(len(v) != len(vecs) for v in vecs):
            raise DimensionMismatch(
                f"need {len(vecs)} vectors of dimension {len(vecs)}")
        object.__setattr__(self, "vectors", vecs)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.vectors == other.vectors
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.vectors,))

    def __repr__(self) -> str:
        return f"Subset(vectors={self.vectors!r})"

    def __reduce__(self):
        # copy and pickle rebuild through __init__, as __setattr__ refuses
        return Subset, (self.vectors,)

    @classmethod
    def from_basis(cls, basis: BasisMatrix) -> "Subset":
        return cls(basis.columns)

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def norms(self) -> tuple[int, ...]:
        return tuple(sum(x * x for x in v) for v in self.vectors)

    def gram(self) -> tuple[Vector, ...]:
        return gram(self.vectors)

    def to_basis(self) -> BasisMatrix:
        """Basis matrix with these vectors as columns; raises if dependent."""
        return BasisMatrix.from_columns(self.vectors)

    def reorder(self, order: Sequence[int]) -> "Subset":
        """Subset with vectors listed in the given order (a permutation)."""
        if sorted(order) != list(range(self.n)):
            raise DimensionMismatch(f"{order} is not a permutation")
        return Subset(self.vectors[i] for i in order)

    def negate(self, indices: Iterable[int]) -> "Subset":
        """Subset with the chosen vectors negated."""
        chosen = set(indices)
        return Subset(
            tuple(-x for x in v) if i in chosen else v
            for i, v in enumerate(self.vectors))


class SubsetStats(NamedTuple):
    """Support statistics of a subset.

    by_coordinate[j] lists the vectors with a nonzero j-th entry,
    by_vector[i] lists the coordinates where vector i is nonzero,
    classes[m] lists the coordinates supported by exactly m vectors and
    counts[m] is its size, heavy[m] lists the coordinates in classes[m]
    where some supporting vector has an entry of magnitude >= 2, and
    excess is the total of (norm - 3) over the vectors.
    """

    by_coordinate: tuple[tuple[int, ...], ...]
    by_vector: tuple[tuple[int, ...], ...]
    classes: tuple[tuple[int, ...], ...]
    counts: tuple[int, ...]
    heavy: tuple[tuple[int, ...], ...]
    excess: int


def stats(subset: Subset) -> SubsetStats:
    """Compute all support statistics of the subset."""
    n = subset.n
    vecs = subset.vectors
    by_coordinate = tuple(
        tuple(i for i in range(n) if vecs[i][j] != 0) for j in range(n))
    by_vector = tuple(
        tuple(j for j in range(n) if vecs[i][j] != 0) for i in range(n))
    classes = tuple(
        tuple(j for j in range(n) if len(by_coordinate[j]) == m)
        for m in range(n + 1))
    counts = tuple(len(c) for c in classes)
    heavy = tuple(
        tuple(j for j in cls if any(abs(vecs[i][j]) >= 2
                                    for i in by_coordinate[j]))
        for cls in classes)
    excess = sum(subset.norms) - 3 * n
    return SubsetStats(by_coordinate, by_vector, classes, counts, heavy,
                       excess)


def check_identity(subset: Subset) -> bool:
    """Counting identity relating the support classes to the entry sizes.

    3*counts[0] + 2*counts[1] + counts[2] + excess always equals
    sum over m >= 4 of (m - 3)*counts[m] plus the total of (entry^2 - 1)
    over all nonzero entries.  The counts[0] term covers coordinates no
    vector touches; without it the identity only holds when every
    coordinate is used.  A False return means an implementation bug; this
    is a self-test oracle.
    """
    st = stats(subset)

    def count(m: int) -> int:
        return st.counts[m] if m < len(st.counts) else 0

    lhs = 3 * count(0) + 2 * count(1) + count(2) + st.excess
    rhs = sum((m - 3) * count(m) for m in range(4, subset.n + 1))
    rhs += sum(x * x - 1 for v in subset.vectors for x in v if x != 0)
    return lhs == rhs


def is_orthogonal(subset: Subset) -> bool:
    """True iff the vectors are pairwise orthogonal with norms >= 1."""
    g = subset.gram()
    n = subset.n
    if any(g[i][i] < 1 for i in range(n)):
        return False
    return all(g[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def is_non_acute(subset: Subset) -> bool:
    """True iff norms are positive, pairwise products are non-positive,
    and each norm dominates the negated off-diagonal sum of its row."""
    g = subset.gram()
    n = subset.n
    for i in range(n):
        if g[i][i] < 1:
            return False
        row_rest = 0
        for j in range(n):
            if j == i:
                continue
            if g[i][j] > 0:
                return False
            row_rest += g[i][j]
        if g[i][i] < -row_rest:
            return False
    return True
