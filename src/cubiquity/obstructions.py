"""Cubiquity obstructions and the brute-force oracle.

A full-rank sublattice of Z^n is cubiquitous when it meets every translated
unit cube x + {0,1}^n.  This module provides

* the Wu obstruction for non-acute subsets (sum of squared Wu coordinates
  against 4n - 3|odd coordinates|), and its restatement for orthogonal
  subsets in terms of the norm excess,
* the determinant gate: index above 2^n rules cubiquity out, index exactly
  2^n reduces it to the existence of a Hajos basis,
* the brute-force oracle that decides cubiquity outright by covering the
  cosets with cube vertices, which grounds every structural criterion in
  the tests.

Obstructions never claim a lattice IS cubiquitous; only the oracle and the
Hajos route do.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Optional

from .errors import NotNonAcute, NotOrthogonal, ResourceLimit
from .lattice import (
    DEFAULT_RESOURCE_CAP,
    BasisMatrix,
    Vector,
    _xgcd,
    hnf_box,
)
from .subsets import Subset, is_non_acute, is_orthogonal, stats

#: Largest dimension the Hajos search accepts; it checks at most 2^n
#: coordinate prefix sets with n gcd checks each.
DEFAULT_PERMUTATION_CAP = 8


class Status(str, Enum):
    CUBIQUITOUS = "Cubiquitous"
    NOT_CUBIQUITOUS = "NotCubiquitous"
    OBSTRUCTED = "Obstructed"
    INCONCLUSIVE = "Inconclusive"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


@dataclass(frozen=True)
class WuData:
    """The Wu element (sum of the subset's vectors) and its parity pattern.

    ``vector`` holds the coordinates of the sum; ``odd``, ``even_nonzero``
    and ``zero`` partition the coordinate indices by the parity of the
    corresponding entry.
    """

    vector: Vector
    odd: tuple[int, ...]
    even_nonzero: tuple[int, ...]
    zero: tuple[int, ...]


@dataclass(frozen=True)
class HajosBasis:
    """A lower-triangular basis with 2s on the diagonal and 0/1 below it.

    ``row_order`` records the coordinate order under which the Hermite form
    took this shape (identity order is tried first).
    """

    matrix: BasisMatrix
    row_order: tuple[int, ...]


@dataclass(frozen=True)
class CubiquityVerdict:
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
    block: object = None

    def to_json_dict(self) -> dict:
        """Fixed-order JSON object: status, witness, inequality, hajos_basis."""
        return {
            "status": self.status.value,
            "witness": list(self.witness) if self.witness is not None else None,
            "inequality": (
                {"lhs": self.inequality[0], "rhs": self.inequality[1]}
                if self.inequality is not None else None),
            "hajos_basis": (
                [list(r) for r in self.hajos.matrix.rows]
                if self.hajos is not None else None),
        }


def wu_element(subset: Subset) -> WuData:
    """Sum of the subset's vectors and the parity partition of its entries."""
    n = subset.n
    total = tuple(sum(v[j] for v in subset.vectors) for j in range(n))
    odd = tuple(j for j in range(n) if total[j] % 2)
    even_nonzero = tuple(j for j in range(n) if total[j] and total[j] % 2 == 0)
    zero = tuple(j for j in range(n) if total[j] == 0)
    return WuData(total, odd, even_nonzero, zero)


def wu_obstruction(subset: Subset) -> CubiquityVerdict:
    """Obstruct cubiquity of a non-acute subset via its Wu element.

    Obstructed when the squared length of the Wu element strictly exceeds
    4n - 3*(number of odd coordinates); Inconclusive otherwise.  The
    obstruction is one-directional, so Cubiquitous is never returned.
    """
    if not is_non_acute(subset):
        raise NotNonAcute("wu_obstruction requires a non-acute subset")
    wu = wu_element(subset)
    lhs = sum(k * k for k in wu.vector)
    rhs = 4 * subset.n - 3 * len(wu.odd)
    status = Status.OBSTRUCTED if lhs > rhs else Status.INCONCLUSIVE
    return CubiquityVerdict(status, inequality=(lhs, rhs))


def wu_obstruction_orthogonal(subset: Subset) -> CubiquityVerdict:
    """Wu obstruction specialised to orthogonal subsets.

    Fires when the norm excess strictly exceeds n - 3*(number of odd Wu
    coordinates).  For orthogonal subsets the squared length of the Wu
    element equals the sum of the norms, so this agrees with
    wu_obstruction on every orthogonal input.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal(
            "wu_obstruction_orthogonal requires an orthogonal subset")
    wu = wu_element(subset)
    lhs = stats(subset).excess
    rhs = subset.n - 3 * len(wu.odd)
    status = Status.OBSTRUCTED if lhs > rhs else Status.INCONCLUSIVE
    return CubiquityVerdict(status, inequality=(lhs, rhs))


def is_cubiquitous_bruteforce(
        basis: BasisMatrix,
        cap: int = DEFAULT_RESOURCE_CAP) -> CubiquityVerdict:
    """Decide cubiquity by covering the cosets of Z^n modulo the lattice.

    The cube x + {0,1}^n meets the lattice iff -x is congruent to some 0/1
    vector e, so the lattice hits every unit cube iff the 2^n vectors e
    reach all |det| cosets.  Their HNF-box representatives are built one
    coordinate at a time, stopping once every coset is reached.  Otherwise
    the witness is the first x of the HNF box, in lexicographic order,
    whose -x lies in an unreached coset, making certificates reproducible.

    The cost is about 2^n + |det| coset reductions of n coordinates each;
    ResourceLimit is raised when n * (2^n + |det|) exceeds ``cap``.
    """
    n = basis.n
    order = abs(basis.det)
    reductions = 2 ** n + order
    if n * reductions > cap:
        raise ResourceLimit(
            f"brute force needs about {reductions} coset reductions of {n} "
            f"coordinates ({n * reductions} steps), cap is {cap}")
    hcols = basis.hnf.columns
    diag = [hcols[j][j] for j in range(n)]

    def reduce(v: list[int], start: int) -> Vector:
        # coordinates below start already lie in the HNF box
        for j in range(start, n):
            q = v[j] // diag[j]
            if q:
                col = hcols[j]
                for i in range(j, n):
                    v[i] -= q * col[i]
        return tuple(v)

    reached = {(0,) * n}
    for k in range(n):
        if len(reached) == order:
            break
        for s in list(reached):
            v = list(s)
            v[k] += 1
            # without a carry at k the sum is already in the box
            reached.add(reduce(v, k) if v[k] == diag[k] else tuple(v))
            if len(reached) == order:
                break
    if len(reached) == order:
        return CubiquityVerdict(Status.CUBIQUITOUS)
    # negation permutes the cosets, so some -x lies outside the reached set
    witness = next(x for x in hnf_box(basis)
                   if reduce([-a for a in x], 0) not in reached)
    return CubiquityVerdict(Status.NOT_CUBIQUITOUS, witness=witness)


def _eliminate(free: list[list[int]], j: int) -> list[list[int]]:
    """Clear coordinate j from the columns by unimodular column operations.

    One column ends up carrying the gcd at j and is dropped; the others
    span the vectors of the columns' lattice that vanish at j.
    """
    rest = []
    pivot = None
    for col in free:
        if col[j] == 0:
            rest.append(col)
        elif pivot is None:
            pivot = col
        else:
            a, b = pivot[j], col[j]
            x, y, g = _xgcd(a, b)
            a_g, b_g = a // g, b // g
            rest.append([a_g * v - b_g * u for u, v in zip(pivot, col)])
            pivot = [x * u + y * v for u, v in zip(pivot, col)]
    return rest


def _first_hajos_order(basis: BasisMatrix) -> Optional[tuple[int, ...]]:
    """Lexicographically first row order whose HNF diagonal is all 2s.

    The k-th HNF diagonal entry is the gcd of the k-th chosen coordinate
    over the lattice vectors that vanish on the coordinates chosen before
    it, so it depends on the set of earlier coordinates, not their order.
    A depth-first search extends prefixes in increasing coordinate order,
    carrying a basis of those vectors ("free" columns), and remembers the
    prefix sets that admit no completion.  Each of the at most 2^n sets is
    expanded once, with n gcd checks.
    """
    n = basis.n
    dead = set()  # bitmasks of prefix sets with no valid completion
    order: list[int] = []

    def extend(free: list[list[int]], chosen: int) -> bool:
        if not free:
            return True
        for j in range(n):
            bit = 1 << j
            if chosen & bit or (chosen | bit) in dead:
                continue
            if gcd(*(col[j] for col in free)) != 2:
                continue
            order.append(j)
            if extend(_eliminate(free, j), chosen | bit):
                return True
            order.pop()
            dead.add(chosen | bit)
        return False

    if extend([list(c) for c in basis.columns], 0):
        return tuple(order)
    return None


def hajos_basis(basis: BasisMatrix,
                perm_cap: int = DEFAULT_PERMUTATION_CAP
                ) -> Optional[HajosBasis]:
    """Search for a Hajos basis of the lattice.

    A Hajos basis is lower triangular with 2s on the diagonal and 0/1
    entries below, hence has determinant 2^n; anything else returns None
    immediately.  Whether existence depends on the coordinate order is not
    settled, so the search covers every row order and records the
    lexicographically first that works (identity first).  It checks at
    most 2^n coordinate prefix sets with n gcd checks each, and refuses
    with ResourceLimit when n exceeds ``perm_cap``.
    """
    n = basis.n
    if abs(basis.det) != 2 ** n:
        return None
    if n > perm_cap:
        raise ResourceLimit(
            f"Hajos search in dimension {n} exceeds the dimension cap "
            f"{perm_cap}")
    order = _first_hajos_order(basis)
    if order is None:
        return None
    # The HNF reduction range makes every subdiagonal entry 0 or 1.
    return HajosBasis(matrix=basis.permute_rows(order).hnf, row_order=order)


def det_gate(basis: BasisMatrix,
             perm_cap: int = DEFAULT_PERMUTATION_CAP) -> CubiquityVerdict:
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
        found = hajos_basis(basis, perm_cap=perm_cap)
        if found is not None:
            return CubiquityVerdict(Status.CUBIQUITOUS, hajos=found)
        return CubiquityVerdict(Status.NOT_CUBIQUITOUS)
    return CubiquityVerdict(Status.INCONCLUSIVE)
