"""Exact integer linear algebra over Z.

Everything here works with arbitrary-precision Python integers; there is no
floating point anywhere.  A full-rank sublattice of Z^n is represented by a
square matrix whose columns are basis vectors.

Below ``_PACKED_FROM`` rows a `BasisMatrix` takes its determinant from the
Hajos greedy (`_triangulate` with `_hajos_pick`): while its pivots are 2
they are the diagonal of a triangular form.  Where a pivot is not 2, or
clearing a coordinate takes more than `_EUCLID_SWAPS` column swaps, the
block left goes to Bareiss's fraction-free elimination, one entry at a
time (`_det_entries`).  That swap cap is the determinant's alone.  The
power-of-two certificate, `BasisMatrix._triangle`, is one greedy at every
power-of-two index up to 2^n: gcd 2 first, else gcd 1, no cap; at 2^n its
form is the Hajos basis.  The basis keeps it from the determinant's
elimination wherever that settles it, so an index-2^n input whose greedy
completes is eliminated once; where that elimination stops short at a
power-of-two index, the form resumes from where it stopped.  From
``_PACKED_FROM`` rows on, Bareiss's elimination runs on the whole
matrix, on rows packed into one integer each when every entry is below
``_PACKED_BELOW``: that kernel is `packed._det_packed`.

``hnf``, ``contains`` and ``direct_sum`` live in ``membership``.  The
Hermite form itself, ``BasisMatrix.hnf`` and `_hnf`, stays here.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import index
from typing import Iterable, Sequence

import cubiquity

from .errors import DimensionMismatch, SingularMatrix

#: Default cap on the brute-force oracle, which refuses inputs whose
#: n * |det| exceeds it.  Under the cap its work is one presentation of
#: Z^n/L from the basis modulo |det|, polynomial in n, and at most n
#: rotations of a |det|-bit integer (a witness adds about 2n + 2 log2 |det|
#: rotations and bit tests), holding at most about 2(n + 1) * |det| bits,
#: a few MB at this default.  Nothing in it grows with 2^n.
DEFAULT_RESOURCE_CAP = 2 ** 24

Vector = tuple[int, ...]


#: `_bareiss_det` runs on packed rows from `_PACKED_FROM` rows on, when
#: every entry is below `_PACKED_BELOW` in absolute value.  Against the
#: per-entry kernel on dense matrices (three per size, best of 15 at
#: n <= 32 and of 5 above, CPython 3.11 on a 2-core x86-64 host), the
#: packed kernel took
#: - with entries in [-2, 2]: 0.66-0.71x the time at n = 16, 0.53-0.56x at
#:   20, 0.45-0.48x at 24, 0.38-0.39x at 32 and 0.30-0.32x at 48-64;
#: - at n = 20-64: 0.59-0.70x with entries below 2^16, 0.62-0.77x below
#:   2^24, 0.70-0.85x below 2^32 and 0.63-0.98x below 2^48;
#: - at n = 16: 0.74x below 2^16, 0.80-0.83x below 2^24, 0.82-0.95x below
#:   2^32 and 1.02-1.04x below 2^48.
#: So it wins at every size from the switch with entries below 2^32;
#: below 2^48 its lead at n = 20 is only 2-6%, and its struct codes hold
#: no entry of 2^63 or more.  Packing costs a fixed amount per row and
#: wastes some slot width, so it pays only where the interpreter's cost
#: per operation outweighs the digit work: many rows, small entries.  With
#: small entries it wins from 16 rows; the switch stays at 20 because
#: below it `BasisMatrix` starts with the Hajos greedy, which hands the
#: rest of the matrix to `_det_entries` where its pivots stop being 2;
#: from it on the packed kernel runs first and a greedy only where
#: `_triangle` is read.  On 2 * (dense) input, where every pivot is 2, a
#: greedy first took 1-2x the per-entry kernel's time at n = 19 and 2-3x the
#: packed kernel's at n = 24-48.  The scan (n <= 13) and hajos (n <= 9)
#: inputs, and 16-dim dense ones, stay below the switch.
_PACKED_FROM = 20
_PACKED_BELOW = 1 << 32


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    if len(rows) >= _PACKED_FROM:
        top = max(map(max, rows))
        low = min(map(min, rows))
        if top < _PACKED_BELOW and low > -_PACKED_BELOW:
            return cubiquity.packed._det_packed(rows, max(top, ~low))
    return _det_entries(rows)


def _det_entries(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss elimination one entry at a time."""
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

    Immutable; rank is checked on construction, which sets ``det``.
    Entries are stored row-major to match the text file format, but the
    columns are the basis vectors.
    """

    def __init__(self, rows: Iterable[Iterable[int]], *,
                 _trusted: bool = False):
        # ``_trusted`` rows are a tuple of n >= 1 tuples of n ints already,
        # as the matrix reader returns them, so they skip the checks; the
        # flag rides on __init__ rather than on a second constructor so
        # that whatever wraps __init__ sees every basis
        if not _trusted:
            # operator.index rejects floats; this library is exact
            rows = tuple(tuple(map(index, row)) for row in rows)
            if not rows:
                raise DimensionMismatch(
                    "a basis matrix needs at least one row")
            if any(len(row) != len(rows) for row in rows):
                raise DimensionMismatch("basis matrix must be square")
        n = len(rows)
        self._rows = rows
        self.det = (_greedy_det(self, rows) if n < _PACKED_FROM
                    else _bareiss_det(rows))
        if self.det == 0:
            raise SingularMatrix(
                f"columns of the {n}x{n} matrix are linearly dependent")

    @classmethod
    def _triangular(cls, cols: list[list[int]],
                    order: list[int]) -> "BasisMatrix":
        """Wrap the columns of a completed `_triangulate`, read in its row
        order, unchecked: triangular with positive diagonal, so the det is
        the product of the diagonal."""
        self = cls.__new__(cls)
        rows = list(zip(*cols))
        self._rows = tuple([rows[i] for i in order])
        self.det = prod(col[i] for col, i in zip(cols, order))
        return self

    @classmethod
    def from_columns(cls, columns: Sequence[Sequence[int]]) -> "BasisMatrix":
        n = len(columns)
        if any(len(c) != n for c in columns):
            raise DimensionMismatch("basis matrix must be square")
        return cls(zip(*columns))

    @property
    def n(self) -> int:
        return len(self._rows)

    @property
    def rows(self) -> tuple[Vector, ...]:
        return self._rows

    @property
    def columns(self) -> tuple[Vector, ...]:
        return tuple(zip(*self._rows))

    def column(self, j: int) -> Vector:
        return tuple(row[j] for row in self._rows)

    @cached_property
    def hnf(self) -> "BasisMatrix":
        return _hnf(self)

    @cached_property
    def _triangle(self) -> tuple[list[list[int]], list[int]] | None:
        """(columns, row order) of a completed `_triangulate` with
        `_cube_pick` and no cap at a power-of-two index up to 2^n, else
        None: one greedy, gcd 2 first, else gcd 1.  Its pivots are 1 and
        2, so at 2^n they are all 2 and its form is the Hajos basis.

        `_greedy_det` sets it where it settles it.  Where its capped
        greedy stopped short at a power-of-two index, this resumes from
        the state it stopped in (`_stopped`) rather than from the rows:
        that greedy's steps are a prefix of this one's, since each pick
        reads only gcds over the lattice left, which its column swaps and
        subtractions keep; and the Hermite form is unique for a fixed row
        order.  So the form is the one a run from the rows gives."""
        d = abs(self.det)
        if d & d - 1 or d > 1 << self.n:
            return None
        # the run takes the stopped state's lists over, so it is dropped
        stopped = vars(self).pop("_stopped", None)
        cols, order, rest, _ = _triangulate(self._rows, _cube_pick, False,
                                            stopped)
        return None if rest else (cols, order)

    def permute_rows(self, order: Sequence[int]) -> "BasisMatrix":
        """The matrix with row order[i] as row i (a permutation)."""
        order = [index(i) for i in order]
        if sorted(order) != list(range(self.n)):
            raise DimensionMismatch(f"{order} is not a permutation")
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


def _hajos_pick(free, rest):
    """The smallest coordinate left whose entries over the free columns are
    all even with one of them 2 mod 4, or None.

    Their gcd, the next pivot, is then 2 times an odd number, so a capped
    `_triangulate` takes only pivot 2.  Where |det| = 2^n and the pivots
    so far are 2, every such gcd is 0 or a power of two, so this is
    exactly the smallest coordinate of gcd 2: the lowest set bit of the
    gcd is the lowest among the entries (x and -x share theirs), and the
    OR of the entries is 2 mod 4 iff that bit is 2.
    """
    for j in rest:
        acc = 0
        for col in free:
            a = col[j]
            if a & 1:
                break
            acc |= a
        else:
            if acc & 2:
                return j
    return None


def _cube_pick(free, rest):
    """`_hajos_pick`, else the smallest coordinate left with an odd entry
    over the free columns, or None.

    At an index that is a power of two every gcd over the free columns is
    a power of two, so this takes only pivots 1 and 2: an odd entry makes
    the gcd 1 (elsewhere the gcd is odd).  `_triangulate` with this pick
    and no cap thus takes every coordinate only through a triangular form
    with 1s and 2s on its diagonal, and at 2^n, where those must all be 2,
    it takes the coordinates `_hajos_pick` would.
    """
    p = _hajos_pick(free, rest)
    if p is None:
        for j in rest:
            for col in free:
                if col[j] & 1:
                    return j
    return p


def _greedy_det(basis: BasisMatrix, rows: Sequence[Sequence[int]]) -> int:
    """The determinant from the capped Hajos greedy and, where it stops,
    `_det_entries` of the block left.  Sets ``basis._triangle`` where this
    elimination settles it; where it leaves it open (a power-of-two index
    below 2^n, or the swap cap at 2^n), it keeps the state it stopped in
    as ``basis._stopped``, from which `BasisMatrix._triangle` resumes."""
    n = len(rows)
    stopped = cols, order, rest, sign = _triangulate(rows, _hajos_pick, True)
    if not rest:
        basis._triangle = cols, order
        return sign << n  # every pivot is 2
    free = cols[len(order):]
    if order:
        left = _det_entries([[col[i] for i in rest] for col in free])
        det = sign * prod(col[p] for col, p in zip(cols, order)) * left
    else:  # the block left is the whole matrix, so read it from the rows
        det = _det_entries(rows)
    d = abs(det)
    top = 1 << n
    # no form off the powers of two up to 2^n, nor at a dead end at 2^n;
    # there every pick has pivot 2, so a pick left means the swap cap
    if d & d - 1 or d > top or d == top and _hajos_pick(free, rest) is None:
        basis._triangle = None
    else:
        basis._stopped = stopped
    return det


#: Swaps `_triangulate` makes at most per step where it runs capped, as
#: `_greedy_det` runs it: past them the block left goes to Bareiss.  The
#: power-of-two form, `BasisMatrix._triangle`, runs with no cap.  The
#: `scan` and `hajos` workload inputs (seeds 1-5) and mixed 0/1 chains at
#: n = 19 need at most 3.  Doubled random entries at n = 19 need up to 19
#: with entries in +-6 and up to 158 in +-10^8, as the entries grow; there
#: the det took 5.3 ms (+-10^4) and 9.4 ms (+-10^8) without the cap, 1.6
#: and 1.9 ms with it, against 1.1 and 1.5 ms for `_det_entries` alone
#: (means of 10 seeds).
_EUCLID_SWAPS = 4


def _triangulate(rows: Sequence[Sequence[int]], pick, capped: bool = False,
                 start=None):
    """Column-style Hermite Normal Form, choosing the row order on the way.

    Step k takes coordinate ``p = pick(free, rest)``.  ``free`` are the
    columns from k on; they span the lattice vectors that vanish on the
    coordinates taken so far, so their gcd at p is the k-th diagonal
    entry.  ``rest`` holds the coordinates not taken, in increasing order.
    A column Euclid clears p from the columns after k: each of them
    subtracts, on p and ``rest``, the multiple of column k nearest to
    clearing its entry at p, and while some entry is left the column of
    least nonzero |entry| at p is swapped into place k.  The entries stay
    near the input's size; extended-gcd steps let them grow to thousands
    of bits at n = 19.  The elimination stops, with p not taken, where
    ``pick`` returns None or, if ``capped``, where the diagonal entry at p
    is above 2 in absolute value or clearing p takes more than
    `_EUCLID_SWAPS` swaps: Bareiss's elimination of the block left then
    costs less.

    Returns (columns, coordinates taken, coordinates left, sign).  The
    first k = len(taken) columns are triangular on the taken coordinates,
    where the others vanish; on the coordinates left, those others are the
    block left.  So det(rows) = sign * (product of the diagonal) *
    det(block left): sign is the parity of the row order taken + left,
    times -1 for each column swap and negation, and the subtractions have
    determinant 1.  Once every coordinate is taken, each column gets a
    positive diagonal and reduces the entries at its coordinate of the
    columns before it into [0, diagonal): the columns read in the order
    taken are the HNF of the rows in that order.

    ``start``, a result of an earlier call on the same rows, resumes that
    elimination where it stopped, in place of the rows' columns: it is
    taken over, not copied.
    """
    n = len(rows)
    if start is None:
        cols = [list(c) for c in zip(*rows)]
        rest = list(range(n))
        order = []
        sign = 1
    else:
        cols, order, rest, sign = start
    for k in range(len(order), n):
        p = pick(cols[k:], rest)
        if p is None:
            break
        at = rest.index(p)
        live = [p] + rest[:at] + rest[at + 1:]
        swaps = 0
        while True:
            ck = cols[k]
            a = ck[p]
            done = True
            for j in range(k + 1, n):
                cj = cols[j]
                b = cj[p]
                if b and a:
                    q = (2 * b + a) // (2 * a)  # the nearest multiple
                    if q:
                        for i in live:
                            cj[i] -= q * ck[i]
                    b = cj[p]
                if b:
                    done = False
            if done or capped and swaps == _EUCLID_SWAPS:
                break
            swaps += 1
            # the column of least nonzero |entry| at p becomes column k
            best, small = k, 0
            for j in range(k, n):
                b = abs(cols[j][p])
                if b and (not small or b < small):
                    best, small = j, b
            cols[k], cols[best] = cols[best], ck
            sign = -sign
        if capped and (not done or abs(ck[p]) > 2):
            break
        del rest[at]
        order.append(p)
        if at & 1:
            sign = -sign
    else:
        for k, p in enumerate(order):
            ck = cols[k]
            if ck[p] < 0:
                ck = cols[k] = [-v for v in ck]
                sign = -sign
            d = ck[p]
            live = order[k:]
            for j in range(k):
                q = cols[j][p] // d
                if q:
                    cj = cols[j]
                    for i in live:
                        cj[i] -= q * ck[i]
    return cols, order, rest, sign


def _hnf(basis: BasisMatrix) -> BasisMatrix:
    """Column-style Hermite Normal Form.

    Lower triangular with positive diagonal; in each row the entries left of
    the diagonal are reduced into [0, diagonal).  The result generates the
    same sublattice and is the unique such basis for a fixed row order.
    """
    cols, order, _, _ = _triangulate(basis.rows,
                                     lambda free, rest: rest[0])
    return BasisMatrix._triangular(cols, order)
