"""Cubiquity verdicts, the brute-force oracle and the decision pipeline.

A full-rank sublattice of Z^n is cubiquitous when it meets every translated
unit cube x + {0,1}^n.  This module provides

* the determinant gate: index above 2^n rules cubiquity out, index exactly
  2^n reduces it to the existence of a Hajos basis,
* the brute-force oracle that decides cubiquity outright by covering the
  cosets with cube vertices, which grounds every structural criterion in
  the tests,
* ``decide``: the determinant gate, then at a power-of-two index below
  2^n a triangular form with 1s and 2s on its diagonal, then the oracle,
  which alone is metered by a resource cap: it refuses an input whose
  n * |det| exceeds the cap.

The paper's Wu obstruction for non-acute subsets (``WuData``,
``wu_element``, ``wu_obstruction``, ``wu_obstruction_orthogonal``) lives in
``wu``.  Its four public names still resolve here, as the same objects,
because ``bench/spans.py`` names them at this path.

Obstructions never claim a lattice IS cubiquitous; only the oracle, the
Hajos route and the 1-2 triangle do.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING, NamedTuple, Optional

import cubiquity

from .errors import ResourceLimit
from .lattice import DEFAULT_RESOURCE_CAP, BasisMatrix, Vector

if TYPE_CHECKING:
    from .classify import Block  # classify imports this module at runtime

def __getattr__(name: str):
    if cubiquity._SUBMODULE.get(name) != "wu":
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(cubiquity, name)


class Status(str, Enum):
    CUBIQUITOUS = "Cubiquitous"
    NOT_CUBIQUITOUS = "NotCubiquitous"
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class HajosBasis(NamedTuple):
    """A lower-triangular basis with 2s on the diagonal and 0/1 below it.

    ``row_order`` records the coordinate order under which the Hermite form
    took this shape (the lexicographically first order, found greedily).
    """

    matrix: BasisMatrix
    row_order: tuple[int, ...]


class CubiquityVerdict(NamedTuple):
    """Decision outcome with a re-checkable certificate.

    ``witness`` is a cube base point x with no lattice point in
    x + {0,1}^n (brute-force NotCubiquitous only).  ``inequality`` carries
    the (lhs, rhs) pair of the obstruction that fired or failed to fire.
    ``hajos`` is set when the determinant gate found a Hajos basis.
    ``block`` names an offending component for classification verdicts.
    """

    status: Status
    witness: Optional[Vector] = None
    inequality: Optional[tuple[int, int]] = None
    hajos: Optional[HajosBasis] = None
    block: Optional[Block] = None

    def to_json_dict(self) -> dict:
        """Fixed-order JSON object: status, witness, inequality, hajos_basis;
        ``_verdict_json`` writes it as ``check`` prints it."""
        return {
            "status": self.status.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "inequality": (
                {"lhs": self.inequality[0], "rhs": self.inequality[1]}
                if self.inequality is not None else None),
            "hajos_basis": None if self.hajos is None
            else [list(r) for r in self.hajos.matrix.rows],
        }


def _verdict_json(verdict: CubiquityVerdict) -> str:
    """``json.dumps(verdict.to_json_dict())`` in one f-string, with no dict
    to walk: ``str`` of a list of ints, or of lists of ints, is its JSON
    text already."""
    if verdict.inequality is None:
        inequality = "null"
    else:
        lhs, rhs = verdict.inequality
        inequality = f'{{"lhs": {lhs}, "rhs": {rhs}}}'
    witness = "null" if verdict.witness is None else list(verdict.witness)
    found = verdict.hajos
    rows = "null" if found is None else [list(r) for r in found.matrix.rows]
    return (f'{{"status": "{verdict.status.value}", "witness": {witness}, '
            f'"inequality": {inequality}, "hajos_basis": {rows}}}')


def is_cubiquitous_bruteforce(
        basis: BasisMatrix,
        cap: int = DEFAULT_RESOURCE_CAP) -> CubiquityVerdict:
    """Decide cubiquity by covering the cosets of Z^n modulo the lattice.

    The cube x + {0,1}^n meets the lattice iff -x is congruent to some 0/1
    vector e, so the lattice hits every unit cube iff the 2^n vectors e
    reach all |det| cosets.  Z^n/L is presented once as a product of
    cyclic groups, straight from the basis modulo |det| (no Hermite form
    is built), so a set of cosets is one |det|-bit integer in mixed radix
    and adding e_k to each of them is a rotation: n rotations reach every
    sum of distinct e_k, stopping once every coset is reached.  Otherwise
    the witness is the first x of the HNF box, in lexicographic order,
    whose -x lies in an unreached coset, making certificates reproducible.

    ResourceLimit is raised when n * |det| exceeds ``cap``.  The work is
    one presentation, polynomial in n, and at most n rotations of a
    |det|-bit integer; a witness adds about 2n + 2 log2 |det| rotations and
    bit tests, each coordinate's value found by halving.  The sets held
    take at most about 2(n + 1) * |det| bits.  Nothing grows with 2^n.
    """
    n = basis.n
    order = abs(basis.det)
    if n * order > cap:
        raise ResourceLimit(
            f"brute force counts n * |det| = {n} * {order} = {n * order} "
            f"steps, cap is {cap}")
    witness = cubiquity.cosets.first_missed_cube(basis)
    if witness is None:
        return CubiquityVerdict(Status.CUBIQUITOUS)
    return CubiquityVerdict(Status.NOT_CUBIQUITOUS, witness=witness)


def hajos_basis(basis: BasisMatrix) -> Optional[HajosBasis]:
    """Search for a Hajos basis of the lattice.

    A Hajos basis is lower triangular with 2s on the diagonal and 0/1
    entries below, hence has determinant 2^n; any other index has none.
    The result carries the lexicographically first row order that works
    (identity first), and a greedy search finds it:

    * Let S be a prefix of coordinates whose HNF diagonal entries are all
      2.  Then {0,1}^S is a complete set of coset representatives of Z^S
      modulo the projection of the lattice L onto S.
    * So L is cubiquitous iff L_S is, where L_S is the set of vectors of L
      that vanish on S, seen in the other coordinates, at index
      2^(n - |S|).
    * By Hajos's theorem (1941; Stein and Szabo, *Algebra and Tiling*,
      1994) a cubiquitous L_S has a Hajos order, and the first coordinate
      of that order has gcd 2 over L_S.  So taking the smallest coordinate
      with gcd 2 never enters a dead prefix when L is cubiquitous.
    * When L is not cubiquitous no order completes, so the first dead end
      proves that no Hajos basis exists.

    The greedy path is the first branch of a depth-first search over all
    row orders, so it returns that search's first order.  It is the one
    greedy the basis runs at every power-of-two index, with no cap
    (`BasisMatrix._triangle`): one Hermite form elimination that picks, at
    each step, the smallest coordinate whose gcd over the columns not yet
    pivoted is 2, else one of gcd 1 (`lattice._cube_pick`).  At 2^n a
    pivot of 1 leaves a dead end, so a form it completes has only 2s on
    its diagonal and took the coordinates of gcd 2 in the order above.
    That form is the certificate, and the HNF reduction range makes every
    subdiagonal entry 0 or 1; this wraps it.
    """
    if abs(basis.det) != 1 << basis.n or basis._triangle is None:
        return None
    cols, order = basis._triangle
    return HajosBasis(BasisMatrix._triangular(cols, order), tuple(order))


def det_gate(basis: BasisMatrix) -> CubiquityVerdict:
    """Determinant criterion for cubiquity.

    |det| above 2^n is Obstructed outright.  |det| equal to 2^n is decided
    by the Hajos search (Cubiquitous iff a Hajos basis exists).  Smaller
    determinants are Inconclusive.
    """
    n = basis.n
    d = abs(basis.det)
    bound = 2 ** n
    if d > bound:
        return CubiquityVerdict(Status.OBSTRUCTED, inequality=(d, bound))
    if d == bound:
        found = hajos_basis(basis)
        if found is not None:
            return CubiquityVerdict(Status.CUBIQUITOUS, hajos=found)
        return CubiquityVerdict(Status.NOT_CUBIQUITOUS)
    return CubiquityVerdict(Status.INCONCLUSIVE)


def decide(basis: BasisMatrix,
           cap: int = DEFAULT_RESOURCE_CAP) -> CubiquityVerdict:
    """Decide cubiquity: the determinant gate, a 1-2 triangle, then the
    coset-cover oracle.

    Only an Inconclusive gate (index below 2^n) goes on.  At an index that
    is a power of two, the basis's `_triangle` is the one greedy that also
    gives the Hajos basis at 2^n (`lattice._cube_pick`: a coordinate of
    gcd 2 first, else the first of gcd 1, with no cap).  Where it takes
    every coordinate the lattice is Cubiquitous: doubling the columns of
    pivot 1 gives a sublattice of index 2^n whose Hermite form in that row
    order has 2s on the diagonal and 0s and 1s below, a Hajos basis, so
    the sublattice is cubiquitous, and so is every lattice that contains
    it.  The verdict carries no certificate, as the oracle's Cubiquitous
    does not.  Otherwise the oracle decides, and only the oracle is
    metered: past ``cap`` the verdict is Inconclusive.
    """
    verdict = det_gate(basis)
    if verdict.status is not Status.INCONCLUSIVE:
        return verdict
    if basis._triangle is not None:
        return CubiquityVerdict(Status.CUBIQUITOUS)
    try:
        return is_cubiquitous_bruteforce(basis, cap=cap)
    except ResourceLimit:
        return CubiquityVerdict(Status.INCONCLUSIVE)
