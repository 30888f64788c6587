"""Classification of orthogonal sublattices and related decision rules.

An orthogonal sublattice is cubiquitous exactly when its basis splits,
under signed permutation of the coordinates, into blocks that are a unit
vector, twice a unit vector, or a hyperbolic pair {e_i + e_j, e_i - e_j}.
The support graph makes the block structure of any subset explicit, so the
classification reduces to recognising those three block shapes.
"""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .errors import MixedSigns, NotOrthogonal, ZeroParameter
from .lattice import BasisMatrix
from .obstructions import CubiquityVerdict, Status
from .subsets import Subset, is_orthogonal

UNIT = "Unit"
TWO_TIMES = "TwoTimes"
HYPER_2X2 = "Hyper2x2"
OTHER = "Other"

GOOD_KINDS = frozenset({UNIT, TWO_TIMES, HYPER_2X2})


class Block(NamedTuple):
    """A support-connected component: its coordinates, vectors, and shape."""

    coordinates: tuple[int, ...]
    vectors: tuple[int, ...]
    kind: str


class BlockDecomposition(NamedTuple):
    blocks: tuple[Block, ...]

    @property
    def kinds(self) -> tuple[str, ...]:
        return tuple(b.kind for b in self.blocks)


def _block_kind(subset: Subset, coords: tuple[int, ...],
                vectors: tuple[int, ...]) -> str:
    vecs = [subset.vectors[i] for i in vectors]
    if len(vectors) == 1 and len(coords) == 1:
        entry = abs(vecs[0][coords[0]])
        if entry == 1:
            return UNIT
        if entry == 2:
            return TWO_TIMES
        return OTHER
    if len(vectors) == 2 and len(coords) == 2:
        entries = [v[j] for v in vecs for j in coords]
        orthogonal = sum(a * b for a, b in zip(vecs[0], vecs[1])) == 0
        if all(abs(e) == 1 for e in entries) and orthogonal:
            return HYPER_2X2
    return OTHER


def decompose(subset: Subset) -> BlockDecomposition:
    """Finest partition of the subset into support-disjoint blocks.

    Connected components of the bipartite graph joining each vector to the
    coordinates where it is nonzero.  Blocks are listed by their smallest
    coordinate; vectors with empty support trail as singleton blocks.
    """
    n = subset.n
    vecs = subset.vectors
    seen_c: set[int] = set()
    seen_v: set[int] = set()
    blocks = []
    for start in range(n):
        if start in seen_c:
            continue
        coords = {start}
        vectors: set[int] = set()
        frontier = [start]
        while frontier:
            j = frontier.pop()
            for i in range(n):
                if i not in vectors and vecs[i][j] != 0:
                    vectors.add(i)
                    for jj in range(n):
                        if vecs[i][jj] != 0 and jj not in coords:
                            coords.add(jj)
                            frontier.append(jj)
        seen_c |= coords
        seen_v |= vectors
        c, v = tuple(sorted(coords)), tuple(sorted(vectors))
        blocks.append(Block(c, v, _block_kind(subset, c, v)))
    for i in range(n):
        if i not in seen_v:
            blocks.append(Block((), (i,), OTHER))
    return BlockDecomposition(tuple(blocks))


def classify_orthogonal(subset: Subset) -> CubiquityVerdict:
    """Decide cubiquity of an orthogonal subset from its block shapes.

    Cubiquitous iff every support block is a unit vector, twice a unit
    vector, or a hyperbolic pair; otherwise NotCubiquitous with the first
    offending block attached as the certificate.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal("classification requires an orthogonal subset")
    for block in decompose(subset).blocks:
        if block.kind not in GOOD_KINDS:
            return CubiquityVerdict(Status.NOT_CUBIQUITOUS, block=block)
    return CubiquityVerdict(Status.CUBIQUITOUS)


def torus_sum_bounds_qball(params: Sequence[int]) -> bool:
    """Decision rule for connected sums of two-strand torus links.

    Parameters are half-twist counts, all nonzero and of one sign.  The
    double branched cover bounds a rational homology ball iff every
    magnitude lies in {1, 2, 4} and the number of magnitude-2 parameters
    is even.
    """
    params = [int(k) for k in params]
    if not params:
        raise ZeroParameter("at least one parameter is required")
    if any(k == 0 for k in params):
        raise ZeroParameter("parameters must be nonzero")
    if any(k > 0 for k in params) and any(k < 0 for k in params):
        raise MixedSigns("parameters must all share one sign")
    magnitudes = [abs(k) for k in params]
    if any(m not in (1, 2, 4) for m in magnitudes):
        return False
    return magnitudes.count(2) % 2 == 0


def det4_formula(a: int, b: int, c: int, d: int) -> int:
    """Closed form for det of the 4x4 matrix with diagonal (a, b, c, d)
    and every off-diagonal entry -1."""
    return (-2 * a - a * b - 2 * b - a * c - b * c - 2 * c - a * d - b * d
            + a * b * c * d - c * d - 2 * d - 3)


def det4_zero_solutions(bound: int = 50) -> list[tuple[int, int, int, int]]:
    """All sorted tuples 1 <= a <= b <= c <= d <= bound with zero
    determinant, in lexicographic order.

    The determinant is affine in d: it vanishes iff
    d * (abc - a - b - c - 2) = 2a + ab + 2b + ac + bc + 2c + 3 = rhs,
    so each (a, b, c) has at most one d.  The right side is positive, so a
    coefficient coef <= 0 has no solution (a = b = 1 gives -4 for every c
    and is skipped).  Write q(a, b, c) = c * coef - rhs; d >= c iff q <= 0.
    q is a quadratic in c with positive leading term (ab - 1) and q(0) < 0,
    so once q > 0 it stays positive for every larger c.  Along the first c
    of each loop, q(a, b, b) = ab^3 - 3b^2 - (3a + 6)b - (2a + 3) and
    q(a, a, a) = a^4 - 6a^2 - 8a - 3 each have one sign change, hence one
    positive root, so once the first c overshoots it overshoots for every
    larger b, and likewise for a.  The loops therefore stop by themselves
    (they reach at most a = 4, b = 6 and c = 12) and the work does not
    grow with the bound.
    """
    if bound < 1:
        raise ValueError("bound must be at least 1")
    out = []
    for a in range(1, bound + 1):
        if _d_below_c(a, a, a):
            break
        for b in range(a, bound + 1):
            if _d_below_c(a, b, b):
                break
            if a == b == 1:
                continue
            for c in range(b, bound + 1):
                coef, rhs = _det4_affine(a, b, c)
                if c * coef > rhs:
                    break
                if coef > 0 and rhs % coef == 0 and rhs // coef <= bound:
                    out.append((a, b, c, rhs // coef))
    return out


def _det4_affine(a: int, b: int, c: int) -> tuple[int, int]:
    """(coef, rhs) with det4_formula(a, b, c, d) == d * coef - rhs."""
    return (a * b * c - a - b - c - 2,
            2 * a + a * b + 2 * b + a * c + b * c + 2 * c + 3)


def _d_below_c(a: int, b: int, c: int) -> bool:
    """Whether q(a, b, c) > 0, so that no zero has d >= c."""
    coef, rhs = _det4_affine(a, b, c)
    return c * coef > rhs


# The two sporadic 8x8 blocks arising among orthogonal subsets whose every
# coordinate is supported by exactly four vectors and whose norm excess
# equals the dimension.  Columns are the basis vectors.  Both determinants
# sit below 2^8 (magnitudes 128 and 144), yet neither lattice meets the
# cube based at (-2, 1, 1, 1, 1, 1, 1, 1).
_CATALOG_ROWS_A = (
    (1, 1, 1, 1, 0, 0, 0, 0),
    (1, -1, -1, -1, 0, 0, 0, 0),
    (0, 1, -1, -1, 1, 0, 0, 0),
    (0, -1, 1, 1, 1, 0, 0, 0),
    (0, 0, 1, -1, 0, 1, 1, 0),
    (0, 0, -1, 1, 0, 1, -1, 0),
    (0, 0, 1, -1, 0, 0, -1, 1),
    (0, 0, -1, 1, 0, 0, 1, 1),
)
_CATALOG_ROWS_B = (
    (1, 1, 1, 1, 0, 0, 0, 0),
    (1, -1, -1, -1, 0, 0, 0, 0),
    (0, -1, 1, 0, 1, 1, 0, 0),
    (0, 1, -1, 0, 1, -1, 0, 0),
    (0, 1, 0, -1, 0, 1, 1, 0),
    (0, -1, 0, 1, 0, -1, 1, 0),
    (0, 0, -1, 1, 0, 1, 0, 1),
    (0, 0, 1, -1, 0, -1, 0, 1),
)


def catalog_blocks() -> tuple[BasisMatrix, BasisMatrix]:
    """The two fixed 8x8 catalog blocks, entries as published."""
    return BasisMatrix(_CATALOG_ROWS_A), BasisMatrix(_CATALOG_ROWS_B)
