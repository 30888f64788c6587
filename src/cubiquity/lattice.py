"""Exact integer linear algebra over Z.

Everything here works with arbitrary-precision Python integers; there is no
floating point anywhere.  A full-rank sublattice of Z^n is represented by a
square matrix whose columns are basis vectors.

Determinants use Bareiss's fraction-free elimination, whose every division
is exact.  Below ``_PACKED_FROM`` rows, or with an entry of
``_PACKED_BELOW`` or more in absolute value, it updates one entry at a time
(`_det_entries`).  Otherwise it packs each row into one integer of signed
fixed-width slots (`_det_packed`), so a step is a few big-integer
operations per row instead of four per entry; the slot width comes from
Hadamard's bound on the minors the elimination can produce.
"""

from __future__ import annotations

from functools import cached_property
from math import prod
from operator import index
from typing import Iterable, Sequence

from .errors import DimensionMismatch, SingularMatrix

#: Default cap on the brute-force oracle, which refuses inputs whose
#: n * (2^n + |det|) exceeds it.  Under the cap its work is one
#: presentation of Z^n/L from the basis modulo |det| and at most n
#: rotations of a |det|-bit integer (a witness adds about 2n + 2 log2 |det|
#: rotations and bit tests), holding at most about 2(n + 1) * |det| bits,
#: a few MB at this default.
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


#: `_bareiss_det` runs on packed rows from `_PACKED_FROM` rows on, when
#: every entry is below `_PACKED_BELOW` in absolute value.  Against the
#: per-entry kernel on dense matrices, the packed kernel took
#: - with entries in [-2, 2]: 1.17x the time at n = 13, 1.0x at 16, 0.74x at
#:   20, 0.66x at 24 and 0.33-0.5x at 32-96;
#: - at n = 20-64: 0.7-0.92x with entries below 2^16, 0.74-1.0x below 2^24,
#:   0.99-1.06x below 2^32 and 1.09-1.49x below 2^64.
#: Packing costs a fixed amount per entry and wastes some slot width, so
#: it pays only where the interpreter's cost per operation outweighs the
#: digit work: many rows, small entries.  The switch sits a little above
#: the break-even of 16 rows.  The scan (n <= 13) and hajos (n <= 9)
#: inputs, and 16-dim dense ones, stay per-entry.
_PACKED_FROM = 20
_PACKED_BELOW = 1 << 16


def _bareiss_det(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant by fraction-free elimination."""
    if (len(rows) >= _PACKED_FROM
            and max(map(max, rows)) < _PACKED_BELOW
            and min(map(min, rows)) > -_PACKED_BELOW):
        return _det_packed(rows)
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


def _minor_bits(rows: Sequence[Sequence[int]]) -> list[int]:
    """``bits[r]`` with every r x r minor below ``2 ** bits[r]`` in absolute
    value.

    Hadamard: a minor is at most the product of its columns' norms, so at
    most the product of the r largest column norms of the whole matrix.  A
    zero column counts as norm 1, which keeps the list nondecreasing, as
    `_det_packed` needs: its slots only ever widen.
    """
    squares = sorted((sum(a * a for a in col) for col in zip(*rows)),
                     reverse=True)
    bits = [0]
    bound = 1
    for s in squares:
        bound *= max(s, 1)
        bits.append((bound.bit_length() + 1) // 2)
    return bits


def _slots(value: int, size: int, width: int) -> int:
    """``value`` in each of ``size`` slots of ``width`` bytes."""
    return int.from_bytes(value.to_bytes(width, "little") * size, "little")


def _det_packed(rows: Sequence[Sequence[int]]) -> int:
    """Bareiss elimination on rows packed into one integer each.

    A row of entries a_j is ``sum(a_j << (w * j))``: signed slots of w bits.
    A step is ``(v * pivot - head * top) // prev >> w`` on every row v below
    the pivot row ``top``: the numerator's slots are the per-entry
    numerators, each exactly prev times its next entry, so the division is
    exact, and slot 0 is ``head * pivot - pivot * head = 0``, so the shift
    drops the eliminated column.  The signed low slot, read as
    ``((v & mask) ^ half) - half``, is the next pivot column.  Pivot
    choice, row swaps and sign are those of `_det_entries`.

    After K steps every entry is a (K+1)-minor, so it fits in w bits from
    `_minor_bits`.  A stage starting at step k runs to step
    ``k + max(k // 3, 6)`` with the width its last minors need (a whole
    number of bytes); then the rows are spread byte-wise into the next
    stage's wider slots.  Each slot stores entry + an offset there, so it is
    a plain unsigned field while it moves.
    """
    n = len(rows)
    bits = _minor_bits(rows)
    sign = 1
    prev = 1
    k = 0
    width = 0  # bytes per slot; 0 until the rows are first packed
    while True:
        end = min(k + max(k // 3, 6), n - 1)
        size = n - k  # live rows, and slots per row
        old, width = width, bits[end + 1] // 8 + 1
        if old:
            offset = 1 << (8 * old - 1)
            lift = _slots(offset, size, old)
            data = b"".join([(v + lift).to_bytes(size * old, "little")
                             for v in live])
            spread = bytearray(size * size * width)
            for byte in range(old):
                spread[byte::width] = data[byte::old]
        else:
            offset = 1 << (8 * width - 1)
            spread = b"".join([(a + offset).to_bytes(width, "little")
                               for row in rows for a in row])
        bias = _slots(offset, size, width)
        length = size * width
        live = [int.from_bytes(spread[i:i + length], "little") - bias
                for i in range(0, len(spread), length)]
        w = 8 * width
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        for _ in range(k, end):
            if not live[0] & mask:
                for r, v in enumerate(live):
                    if v & mask:
                        live[0], live[r] = v, live[0]
                        sign = -sign
                        break
                else:
                    return 0
            top = live[0]
            pivot = ((top & mask) ^ half) - half
            live = [(v * pivot - (((v & mask) ^ half) - half) * top)
                    // prev >> w for v in live[1:]]
            prev = pivot
        if end == n - 1:
            # one row of one slot: the packed value is the entry itself
            return sign * live[0]
        k = end


class BasisMatrix:
    """An n x n integer matrix whose columns span a full-rank sublattice.

    Immutable; rank is checked on construction.  Entries are stored row-major
    to match the text file format, but the columns are the basis vectors.
    """

    def __init__(self, rows: Iterable[Iterable[int]]):
        # operator.index rejects floats; this library is exact
        rows = tuple(tuple(map(index, row)) for row in rows)
        n = len(rows)
        if n == 0:
            raise DimensionMismatch("a basis matrix needs at least one row")
        if any(len(row) != n for row in rows):
            raise DimensionMismatch("basis matrix must be square")
        self._rows = rows
        if self.det == 0:
            raise SingularMatrix(
                f"columns of the {n}x{n} matrix are linearly dependent")

    @classmethod
    def _triangular(cls, rows: tuple[Vector, ...]) -> "BasisMatrix":
        """Wrap the rows of a triangular integer matrix with nonzero
        diagonal, unchecked; its det is the product of the diagonal."""
        self = cls.__new__(cls)
        self._rows = rows
        self.det = prod(row[i] for i, row in enumerate(rows))
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
    def det(self) -> int:
        return _bareiss_det(self._rows)

    @cached_property
    def hnf(self) -> "BasisMatrix":
        return _hnf(self)

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


def _triangulate(basis: BasisMatrix, pick):
    """Column-style Hermite Normal Form, choosing the row order on the way.

    Step k takes coordinate ``p = pick(free, rest)``.  ``free`` are the
    columns from k on; they span the lattice vectors that vanish on the
    coordinates chosen so far, so their gcd at p is the k-th diagonal
    entry.  ``rest`` holds the unchosen coordinates in increasing order.
    Extended-gcd column operations on the unchosen coordinates clear p from
    the columns after k, or one subtraction of a multiple of column k where
    its entry at p divides theirs; column k then gets a positive diagonal
    and reduces the entries at p of the columns before it into
    [0, diagonal).

    Returns (the HNF of the rows in the chosen order, that order), or None
    as soon as ``pick`` does.
    """
    n = basis.n
    cols = [list(c) for c in basis.columns]
    rest = list(range(n))
    order = []
    for k in range(n):
        p = pick(cols[k:], rest)
        if p is None:
            return None
        rest.remove(p)
        order.append(p)
        live = [p] + rest
        ck = cols[k]
        for j in range(k + 1, n):
            b = cols[j][p]
            if b == 0:
                continue
            a = ck[p]
            cj = cols[j]
            if a and b % a == 0:  # one multiple of column k clears it
                q = b // a
                for i in live:
                    cj[i] -= q * ck[i]
                continue
            x, y, g = _xgcd(a, b)
            a_g, b_g = a // g, b // g
            for i in live:
                u, v = ck[i], cj[i]
                ck[i] = x * u + y * v
                cj[i] = a_g * v - b_g * u
        if ck[p] == 0:
            raise SingularMatrix("matrix is not full rank")
        if ck[p] < 0:
            ck = cols[k] = [-v for v in ck]
        d = ck[p]
        for j in range(k):
            q = cols[j][p] // d
            if q:
                cj = cols[j]
                for i in live:
                    cj[i] -= q * ck[i]
    return BasisMatrix._triangular(
        tuple(tuple(col[i] for col in cols) for i in order)), tuple(order)


def _hnf(basis: BasisMatrix) -> BasisMatrix:
    """Column-style Hermite Normal Form.

    Lower triangular with positive diagonal; in each row the entries left of
    the diagonal are reduced into [0, diagonal).  The result generates the
    same sublattice and is the unique such basis for a fixed row order.
    """
    return _triangulate(basis, lambda free, rest: rest[0])[0]


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
