"""Classification of orthogonal sublattices and related decision rules.

An orthogonal sublattice is cubiquitous exactly when its basis splits,
under signed permutation of the coordinates, into blocks that are a unit
vector, twice a unit vector, or a hyperbolic pair {e_i + e_j, e_i - e_j}.
The support graph makes the block structure of any subset explicit, so the
classification reduces to recognising those three block shapes.
"""

from __future__ import annotations

from operator import index
from typing import NamedTuple, Sequence

from .errors import MixedSigns, NotOrthogonal, ZeroParameter
from .lattice import BasisMatrix
from .obstructions import CubiquityVerdict, Status
from .subsets import Subset, _support_index, is_orthogonal

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


_ONE_BY_ONE = {1: UNIT, 2: TWO_TIMES}  # |entry| of a 1x1 block


def _block_kind(subset: Subset, coords: tuple[int, ...],
                vectors: tuple[int, ...]) -> str:
    vecs = subset.vectors
    if len(vectors) == len(coords) == 1:
        return _ONE_BY_ONE.get(abs(vecs[vectors[0]][coords[0]]), OTHER)
    if len(vectors) == len(coords) == 2:
        # both vectors vanish off the block's two coordinates
        (i, j), (s, t) = coords, vectors
        a, b, c, d = vecs[s][i], vecs[s][j], vecs[t][i], vecs[t][j]
        if abs(a) == abs(b) == abs(c) == abs(d) == 1 and a * c + b * d == 0:
            return HYPER_2X2
    return OTHER


def decompose(subset: Subset) -> BlockDecomposition:
    """Finest partition of the subset into support-disjoint blocks.

    Connected components of the bipartite graph joining each vector to the
    coordinates where it is nonzero.  Blocks are listed by their smallest
    coordinate; vectors with empty support trail as singleton blocks.
    Each block grows one list of coordinates, read while it grows, with a
    flag per coordinate and per vector, so every nonzero entry is visited
    once from its coordinate and once from its vector.
    """
    by_vector, by_coordinate = _support_index(subset)
    reached = [False] * subset.n  # per coordinate
    taken = [False] * subset.n  # per vector
    blocks = []
    for start in range(subset.n):
        if reached[start]:
            continue
        reached[start] = True
        coords = [start]
        vectors = []
        for j in coords:  # visits the coordinates appended below too
            for i in by_coordinate[j]:
                if not taken[i]:
                    taken[i] = True
                    vectors.append(i)
                    for k in by_vector[i]:
                        if not reached[k]:
                            reached[k] = True
                            coords.append(k)
        coords.sort()
        vectors.sort()
        c, v = tuple(coords), tuple(vectors)
        blocks.append(Block(c, v, _block_kind(subset, c, v)))
    blocks.extend(Block((), (i,), OTHER)
                  for i, support in enumerate(by_vector) if not support)
    return BlockDecomposition(tuple(blocks))


def classify_orthogonal(subset: Subset) -> CubiquityVerdict:
    """Decide cubiquity of an orthogonal subset from its block shapes.

    Cubiquitous iff every support block is a unit vector, twice a unit
    vector, or a hyperbolic pair; otherwise NotCubiquitous with the first
    offending block attached as the certificate.
    """
    return _classify_blocks(subset)[0]


def _classify_blocks(
        subset: Subset) -> tuple[CubiquityVerdict, BlockDecomposition]:
    """classify_orthogonal's verdict and the decomposition it read."""
    if not is_orthogonal(subset):
        raise NotOrthogonal("classification requires an orthogonal subset")
    blocks = decompose(subset)
    for block in blocks.blocks:
        if block.kind not in GOOD_KINDS:
            return (CubiquityVerdict(Status.NOT_CUBIQUITOUS, block=block),
                    blocks)
    return CubiquityVerdict(Status.CUBIQUITOUS), blocks


def torus_sum_bounds_qball(params: Sequence[int]) -> bool:
    """Decision rule for connected sums of two-strand torus links.

    Parameters are half-twist counts, all nonzero and of one sign.  The
    double branched cover bounds a rational homology ball iff every
    magnitude lies in {1, 2, 4} and the number of magnitude-2 parameters
    is even.
    """
    params = [index(k) for k in params]  # rejects floats, as Subset does
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
    and every off-diagonal entry -1, which is affine in d."""
    # index() rejects floats, as BasisMatrix does
    coef, rhs = _det4_affine(index(a), index(b), index(c))
    return index(d) * coef - rhs


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
    """(coef, rhs) with det4_formula(a, b, c, d) == d * coef - rhs: coef
    is the 3x3 minor of (a, b, c), from the expansion along the last row."""
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
