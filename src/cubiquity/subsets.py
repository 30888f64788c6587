"""Subsets of Z^n and their combinatorial statistics.

A subset is an ordered list of n integer vectors in Z^n.  It carries no
independence requirement; it only becomes a basis when converted to a
BasisMatrix.  All indices in this module are 0-based.
"""

from __future__ import annotations

from itertools import compress
from operator import index
from typing import Iterable, NamedTuple, Sequence

from .errors import DimensionMismatch
from .lattice import BasisMatrix, Vector

_Supports = tuple[tuple[int, ...], ...]  # by_vector or by_coordinate


class Subset:
    """An ordered list of n vectors in Z^n (possibly empty, n = 0).

    Immutable and compared by value; the constructor turns every entry
    into an int and checks that there are n vectors of dimension n.  The
    support index is built on first use and kept (see _support_index).
    """

    __slots__ = ("vectors", "_index")
    __match_args__ = ("vectors",)
    vectors: tuple[Vector, ...]

    def __init__(self, vectors: Iterable[Sequence[int]]):
        vecs = tuple(tuple(map(index, v)) for v in vectors)
        if any(len(v) != len(vecs) for v in vecs):
            raise DimensionMismatch(
                f"need {len(vecs)} vectors of dimension {len(vecs)}")
        object.__setattr__(self, "vectors", vecs)

    @classmethod
    def _unchecked(cls, vectors: tuple[Vector, ...]) -> "Subset":
        """Wrap n tuples of n ints, unchecked: for rewrites whose entries
        come from a subset that was checked already, and for the columns
        of rows the matrix reader returned."""
        self = cls.__new__(cls)
        object.__setattr__(self, "vectors", vectors)
        return self

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

    @property
    def n(self) -> int:
        return len(self.vectors)

    @property
    def norms(self) -> tuple[int, ...]:
        """Squared lengths, from the nonzero entries only."""
        vecs = self.vectors
        norms = [0] * len(vecs)
        for j, users in enumerate(_support_index(self)[1]):
            for i in users:
                x = vecs[i][j]
                norms[i] += x * x
        return tuple(norms)

    def to_basis(self) -> BasisMatrix:
        """Basis matrix with these vectors as columns; raises if dependent."""
        return BasisMatrix.from_columns(self.vectors)

    def reorder(self, order: Sequence[int]) -> "Subset":
        """Subset with vectors listed in the given order (a permutation)."""
        order = [index(i) for i in order]
        if sorted(order) != list(range(self.n)):
            raise DimensionMismatch(f"{order} is not a permutation")
        return Subset(self.vectors[i] for i in order)

    def negate(self, indices: Iterable[int]) -> "Subset":
        """Subset with the chosen vectors negated."""
        chosen = {index(i) for i in indices}
        if any(not 0 <= i < self.n for i in chosen):
            raise DimensionMismatch(
                f"{sorted(chosen)} has an index outside range({self.n})")
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


def _supports(subset: Subset) -> tuple[_Supports, _Supports]:
    """(by_vector, by_coordinate) as SubsetStats defines them, each list
    in increasing order."""
    coordinates = range(subset.n)
    by_vector = tuple(tuple(compress(coordinates, v)) for v in subset.vectors)
    by_coordinate: list[list[int]] = [[] for _ in coordinates]
    for i, support in enumerate(by_vector):
        for j in support:
            by_coordinate[j].append(i)
    return by_vector, tuple(map(tuple, by_coordinate))


def _support_index(subset: Subset) -> tuple[_Supports, _Supports]:
    """_supports of the subset, built on first use and kept on it, so a
    route and the predicate that checks its input share one index."""
    try:
        return subset._index
    except AttributeError:
        supports = _supports(subset)
        object.__setattr__(subset, "_index", supports)
        return supports


def stats(subset: Subset) -> SubsetStats:
    """Compute all support statistics of the subset, in one pass over the
    nonzero entries by coordinate."""
    n = subset.n
    vecs = subset.vectors
    by_vector, by_coordinate = _support_index(subset)
    by_count: list[list[int]] = [[] for _ in range(n + 1)]
    heavy: list[list[int]] = [[] for _ in range(n + 1)]
    squares = 0
    for j, users in enumerate(by_coordinate):
        by_count[len(users)].append(j)
        big = False
        for i in users:
            x = vecs[i][j]
            square = x * x
            squares += square
            if square >= 4:  # an entry of magnitude >= 2
                big = True
        if big:
            heavy[len(users)].append(j)
    classes = tuple(map(tuple, by_count))
    return SubsetStats(by_coordinate, by_vector, classes,
                       tuple(map(len, classes)), tuple(map(tuple, heavy)),
                       squares - 3 * n)


def check_identity(subset: Subset) -> bool:
    """Counting identity relating the support classes to the entry sizes.

    3*counts[0] + 2*counts[1] + counts[2] + excess always equals
    sum over m >= 4 of (m - 3)*counts[m] plus the total of (entry^2 - 1)
    over all nonzero entries.  The counts[0] term covers coordinates no
    vector touches; without it the identity only holds when every
    coordinate is used.  A False return means an implementation bug; this
    is a self-test oracle.
    """
    return _identity_holds(subset, stats(subset))


def _identity_holds(subset: Subset, st: SubsetStats) -> bool:
    """check_identity given the subset's stats.  The entries are read
    again through by_vector; stats reads them by coordinate."""

    def count(m: int) -> int:
        return st.counts[m] if m < len(st.counts) else 0

    lhs = 3 * count(0) + 2 * count(1) + count(2) + st.excess
    rhs = sum((m - 3) * count(m) for m in range(4, subset.n + 1))
    rhs += sum(v[j] * v[j] for v, support in zip(subset.vectors, st.by_vector)
               for j in support) - sum(map(len, st.by_vector))
    return lhs == rhs


def _gram_sums(
        subset: Subset) -> tuple[list[int], dict[tuple[int, int], int]]:
    """(norms, products): one pass over the coordinates adds each nonzero
    entry's square to its vector's norm and, for each pair a < b of
    vectors that share the coordinate, the entries' product to
    products[a, b].  A pair that shares no coordinate has product 0 and
    no key."""
    vecs = subset.vectors
    norms = [0] * len(vecs)
    products: dict[tuple[int, int], int] = {}
    get = products.get
    for j, users in enumerate(_support_index(subset)[1]):
        for p, a in enumerate(users, 1):
            x = vecs[a][j]
            norms[a] += x * x
            for b in users[p:]:
                key = a, b
                products[key] = get(key, 0) + x * vecs[b][j]
    return norms, products


def is_orthogonal(subset: Subset) -> bool:
    """True iff the vectors are pairwise orthogonal with norms >= 1."""
    norms, products = _gram_sums(subset)
    return min(norms, default=1) >= 1 and not any(products.values())


def is_non_acute(subset: Subset) -> bool:
    """True iff norms are positive, pairwise products are non-positive,
    and each norm dominates the negated off-diagonal sum of its row."""
    norms, products = _gram_sums(subset)
    if min(norms, default=1) < 1 or max(products.values(), default=0) > 0:
        return False
    for (a, b), product in products.items():  # norms become row sums
        norms[a] += product
        norms[b] += product
    return min(norms, default=0) >= 0
