"""Exact lattice arithmetic for the benchmark's ground truth and verifier.

Nothing here imports ``cubiquity``: every verdict the benchmark checks is
checked against this independent code.  Matrices are lists of rows and,
as in the package, the columns are the basis vectors.
"""

from __future__ import annotations

import itertools
from math import factorial


def det(rows) -> int:
    """Fraction-free (Bareiss) determinant with row pivoting."""
    m = [list(r) for r in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        pivot = next((r for r in range(k, n) if m[r][k]), None)
        if pivot is None:
            return 0
        if pivot != k:
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def column_hnf(rows) -> list[list[int]]:
    """Lower-triangular Hermite form of the lattice spanned by the columns.

    ``rows`` is k x m with full row rank k.  The result is k x k with a
    positive diagonal and the entries left of the diagonal reduced into
    [0, diagonal).
    """
    k, m = len(rows), len(rows[0])
    cols = [[rows[i][j] for i in range(k)] for j in range(m)]
    out = []
    for r in range(k):
        live = [c for c in cols if c[r]]
        if not live:
            raise ValueError("rows are not of full rank")
        # Euclid on row r: keep the column with the smallest nonzero entry
        while len(live) > 1:
            live.sort(key=lambda c: abs(c[r]))
            a = live[0]
            rest = []
            for c in live[1:]:
                q = c[r] // a[r]
                c = [x - q * y for x, y in zip(c, a)]
                if c[r]:
                    rest.append(c)
                else:
                    cols.append(c)
            live = [a] + rest
        pivot = live[0]
        if pivot[r] < 0:
            pivot = [-x for x in pivot]
        cols = [c for c in cols if not c[r] and any(c)]
        out.append(pivot)
    for r in range(k):
        d = out[r][r]
        for j in range(r):
            q = out[j][r] // d
            if q:
                out[j] = [x - q * y for x, y in zip(out[j], out[r])]
    return [[out[j][i] for j in range(k)] for i in range(k)]


class Lattice:
    """Membership and coset reduction against a full-rank basis."""

    def __init__(self, rows):
        self.n = len(rows)
        self.h = column_hnf(rows)
        self.diag = [self.h[i][i] for i in range(self.n)]
        self.hcols = [[self.h[i][j] for i in range(self.n)]
                      for j in range(self.n)]
        self.index = 1
        for d in self.diag:
            self.index *= d

    def reduce(self, v) -> tuple[int, ...]:
        """The representative of v + L in the box prod [0, H_jj)."""
        v = list(v)
        for j, d in enumerate(self.diag):
            q = v[j] // d
            if q:
                col = self.hcols[j]
                for i in range(j, self.n):
                    v[i] -= q * col[i]
        return tuple(v)

    def contains(self, v) -> bool:
        return not any(self.reduce(v))

    def box_position(self, x) -> int:
        """1-based rank of x in the lexicographic order of the HNF box."""
        pos = 0
        for xi, d in zip(x, self.diag):
            pos = pos * d + xi
        return pos + 1

    def cube_covered(self, x) -> bool:
        """True iff some vertex of x + {0,1}^n lies in the lattice."""
        return any(self.contains([a + e for a, e in zip(x, eps)])
                   for eps in itertools.product((0, 1), repeat=self.n))


def cover_oracle(rows) -> bool:
    """Decide cubiquity by coset cover, in O(2^n + |det|) reductions.

    The cube x + {0,1}^n meets L iff -x is congruent to a 0/1 vector, so
    L is cubiquitous iff the 2^n vectors eps reach all |det| cosets.
    """
    lat = Lattice(rows)
    hit = {lat.reduce(eps)
           for eps in itertools.product((0, 1), repeat=lat.n)}
    return len(hit) == lat.index


def first_hajos_order(rows):
    """Lexicographically first row order whose Hermite form is a Hajos basis.

    An order works iff every prefix set P of coordinates projects L onto a
    lattice of index 2^|P|.  The index depends only on the set, so a depth
    first search over prefix sets with a memo of dead sets finds the same
    first order as trying all n! permutations.  None when no order works.
    """
    n = len(rows)
    if abs(det(rows)) != 2 ** n:
        return None
    dead = set()

    def index_ok(members):
        h = column_hnf([rows[i] for i in members])
        prod = 1
        for i in range(len(members)):
            prod *= h[i][i]
        return prod == 2 ** len(members)

    def extend(prefix, mask):
        if len(prefix) == n:
            return tuple(prefix)
        for j in range(n):
            bit = 1 << j
            if mask & bit or (mask | bit) in dead:
                continue
            if index_ok(prefix + [j]):
                found = extend(prefix + [j], mask | bit)
                if found is not None:
                    return found
            dead.add(mask | bit)
        return None

    return extend([], 0)


def permutation_rank(order) -> int:
    """1-based position of a permutation in lexicographic order."""
    n = len(order)
    rank = 0
    remaining = sorted(order)
    for i, v in enumerate(order):
        k = remaining.index(v)
        rank += k * factorial(n - 1 - i)
        remaining.pop(k)
    return rank + 1


def is_hajos_shape(h) -> bool:
    """Lower triangular, 2 on the diagonal, 0/1 below it."""
    n = len(h)
    for i in range(n):
        for j in range(n):
            v = h[i][j]
            if ((i == j and v != 2) or (i < j and v)
                    or (i > j and v not in (0, 1))):
                return False
    return True


def find_row_order(rows, h, budget=100000):
    """A row order under which the lattice's Hermite form equals h, if any.

    Depth first search: the leading k x k block of h must be the Hermite
    form of the projection onto the first k coordinates of the order.
    Returns None when no order matches within ``budget`` projections.
    """
    n = len(rows)
    left = [budget]

    def extend(prefix):
        k = len(prefix)
        if k == n:
            return tuple(prefix)
        for j in range(n):
            if j in prefix:
                continue
            left[0] -= 1
            if left[0] < 0:
                return None
            members = prefix + [j]
            block = column_hnf([rows[i] for i in members])
            if all(block[i][c] == h[i][c]
                   for i in range(k + 1) for c in range(k + 1)):
                found = extend(members)
                if found is not None:
                    return found
        return None

    return extend([])


def det4_table(bound: int) -> list[tuple[int, int, int, int]]:
    """Sorted zero-determinant diagonals (a <= b <= c <= d <= bound).

    The 4x4 matrix with diagonal (a, b, c, d) and -1 elsewhere has a
    determinant affine in d, so each (a, b, c) has at most one d.
    """
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                slope = det4(a, b, c, 1) - det4(a, b, c, 0)
                const = det4(a, b, c, 0)
                if slope == 0:  # then the constant term is negative
                    continue
                d, rem = divmod(-const, slope)
                if rem == 0 and c <= d <= bound:
                    out.append((a, b, c, d))
    return out


def det4(a, b, c, d) -> int:
    """Determinant of diag(a, b, c, d) with every off-diagonal entry -1."""
    vals = (a, b, c, d)
    return det([[vals[i] if i == j else -1 for j in range(4)]
                for i in range(4)])
