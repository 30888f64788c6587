"""Bareiss's elimination on rows packed into one integer each.

`lattice._bareiss_det` loads this module, once per process
(``lattice._packed``), from ``lattice._PACKED_FROM`` rows on, when every
entry is below ``lattice._PACKED_BELOW``, so a program that takes no
determinant of that size never compiles it.  Each row is packed into one
integer of signed fixed-width slots (`_det_packed`): a step is then a few
big-integer operations per row instead of four per entry; the slot width
comes from Hadamard's bound on the minors the elimination can produce.
Once a row takes ``_PAIRS_FROM`` bytes, one pass eliminates two columns
(Bareiss's two-step method): by Sylvester's identity the row two steps on
is ``(p2 * v - f * sec + e * top) / p0``, where top and sec are the two
pivot rows, p0 is the pivot before them, p2 the second pivot, and f and e
are 2 x 2 minors of v's and the pivot rows' first two slots, divided by
p0.  Every one of these divisions is exact, and the row update needs one
exact division by p0 per pair of columns instead of one per column; that
division is the dearest part of a step.  Around the elimination no pass
touches an entry in bytecode: the column norms are ``sum(map(mul, col,
col))``, the first pack is one `struct` call per row, and a widening moves
bytes by strided slices.
"""

from __future__ import annotations

from operator import mul
from struct import Struct
from typing import Sequence

#: `_det_packed` eliminates two columns per pass once a row takes this many
#: bytes.  Against single steps on dense matrices with entries in [-2, 2]
#: (three per size, best of 30 at n < 50 and of 10 above), two columns per
#: pass on every stage took 1.13x the time at n = 20, 1.07x at 24 and 1.06x
#: at 28.  With this switch it took 0.99-1.0x at n = 20-32, 0.92-0.99x at
#: 36-44, 0.86-0.87x at 48-52 and 0.76-0.81x at 56-64.
_PAIRS_FROM = 128

#: The struct codes `_det_packed` first packs an entry with, narrowest
#: first, and their sizes in bytes.
_CODES = (("b", 1), ("h", 2), ("i", 4), ("q", 8))


def _minor_bits(rows: Sequence[Sequence[int]]) -> list[int]:
    """``bits[r]`` with every r x r minor below ``2 ** bits[r]`` in absolute
    value.

    Hadamard: a minor is at most the product of its columns' norms, so at
    most the product of the r largest column norms of the whole matrix.  A
    zero column counts as norm 1, which keeps the list nondecreasing, as
    `_det_packed` needs: its slots only ever widen.
    """
    squares = sorted((sum(map(mul, col, col)) for col in zip(*rows)),
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


def _swap_lead(live: list[int], mask: int) -> bool:
    """Swap the first row of ``live`` whose low slot is nonzero to the
    front; False if there is none, and the determinant is then 0."""
    for r, v in enumerate(live):
        if v & mask:
            live[0], live[r] = v, live[0]
            return True
    return False


def _det_packed(rows: Sequence[Sequence[int]],
                peak: int | None = None) -> int:
    """Bareiss elimination on rows packed into one integer each.

    A row of entries a_j is ``sum(a_j << (w * j))``: signed slots of w bits.
    A step is ``(v * pivot - head * top) // prev >> w`` on every row v below
    the pivot row ``top``: the numerator's slots are the per-entry
    numerators, each exactly prev times its next entry, so the division is
    exact, and slot 0 is ``head * pivot - pivot * head = 0``, so the shift
    drops the eliminated column.  The signed low slot, read as
    ``((v & mask) ^ half) - half``, is the next pivot column.  Pivot
    choice, row swaps and sign are those of `lattice._det_entries`.

    Where a row is at least `_PAIRS_FROM` bytes long, one pass eliminates
    two columns (Bareiss's two-step method).  With p0 = prev, ``top`` =
    (p1, a01, ...) and a row v = (a0, a1, ...), the one-step entry of v at
    the second column is ``f = (p1 * a1 - a0 * a01) / p0``.  The second
    pivot row ``sec`` = (b0, b1, ...) is the first row after ``top`` with
    f != 0, swapped into second place (with a sign flip, as a one-step
    swap would); its f is the second pivot p2.  Then, with ``e = (b0 * a1
    - b1 * a0) / p0``, ``(p2 * v - f * sec + e * top) / p0 >> 2w`` is v
    two steps on.  This is Sylvester's identity: expanding the 3 x 3 minor
    of top, sec and v along v's column gives p0 * (p2 * v - f * sec + e *
    top), and that minor is p0 ** 2 times the entry two steps on.  So each
    slot of the numerator is exactly p0 times its new entry, the first two
    are 0, and f, e and p2 are minors of the input too: every division is
    exact.  Per row a pass costs three products, two sums, one division
    and one shift, where two steps cost four products, two sums, two
    divisions and two shifts, and the exact division is the dearest.

    The three coefficients come from the low two slots, read at once as
    the signed 2w-bit number ``x = a0 + (a1 << w)``.  Modulo 2^(2w), a
    negative a0 borrows 1 from slot 1; the signed read undoes the borrow,
    since |x| < 2^(2w - 1), and a0 is x's signed low slot.  With ``t = p1
    + (a01 << w)`` and ``s = b0 + (b1 << w)``, slot 0 cancels in ``p1 * x
    - a0 * t = (p1 * a1 - a0 * a01) << w``, so ``f = (p1 * x - a0 * t) //
    (p0 << w)`` and ``e = (b0 * x - a0 * s) // (p0 << w)`` need no read of
    a1.  On shorter rows these small-integer operations cost more than the
    division they save, and every step is a single one.

    After K steps every entry is a (K+1)-minor, so it fits in w bits from
    `_minor_bits`.  A stage starting at step k runs to step
    ``k + max(k // 3, 6)`` with the width its last minors need (a whole
    number of bytes), or the stage before's if that is wider: slots only
    widen.  A stage of odd length ends with a single step.

    The first pack is one struct call per row.  Each entry takes the
    narrowest code of ``_CODES`` (c = 1, 2, 4 or 8 bytes) that holds every
    entry, followed by width - c zero bytes, so the first width is at
    least c.  Read as one unsigned number, the row holds each entry's
    c-byte two's complement; flipping bit 8c - 1 of every slot turns that
    into entry + 2^(8c - 1), a field below 2^(8c) with no borrow, and
    subtracting the flipped bits leaves the signed slots.  So every entry
    must lie in [-2^63, 2^63); ``peak``, the largest of a and ~a = -a - 1
    over the entries a, picks the code, and `lattice._bareiss_det` passes
    the one its own bound check found.  Where a stage widens the slots, the rows
    are spread byte-wise into the wider ones, each slot holding entry + an
    offset so that it is a plain unsigned field while it moves; the rows
    are read back from one bytes copy of the spread, since int.from_bytes
    copies any other buffer before it reads it.
    """
    n = len(rows)
    bits = _minor_bits(rows)
    if peak is None:
        peak = max(max(map(max, rows)), ~min(map(min, rows)))
    for code, c in _CODES:
        if peak < 1 << (8 * c - 1):
            break
    sign = 1
    prev = 1
    k = 0
    width = c  # bytes per slot
    while True:
        end = min(k + max(k // 3, 6), n - 1)
        size = n - k  # live rows, and slots per row
        old, width = width, max(width, bits[end + 1] // 8 + 1)
        length = size * width
        if not k:
            pack = Struct("<" + (code + "x" * (width - c)) * n).pack
            flip = _slots(1 << (8 * c - 1), n, width)
            live = [(int.from_bytes(pack(*row), "little") ^ flip) - flip
                    for row in rows]
        elif width > old:
            offset = 1 << (8 * old - 1)
            lift = _slots(offset, size, old)
            data = b"".join([(v + lift).to_bytes(size * old, "little")
                             for v in live])
            spread = bytearray(size * size * width)
            for byte in range(old):
                spread[byte::width] = data[byte::old]
            spread = bytes(spread)
            bias = _slots(offset, size, width)
            live = [int.from_bytes(spread[i:i + length], "little") - bias
                    for i in range(0, len(spread), length)]
        w = 8 * width
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        steps = end - k
        if length >= _PAIRS_FROM:
            w2 = 2 * w
            mask2 = (1 << w2) - 1
            half2 = 1 << (w2 - 1)
            for _ in range(steps // 2):
                if not live[0] & mask:
                    if not _swap_lead(live, mask):
                        return 0
                    sign = -sign
                top = live[0]
                t = ((top & mask2) ^ half2) - half2
                p1 = ((t & mask) ^ half) - half
                p0w = prev << w
                for r in range(1, len(live)):
                    s = ((live[r] & mask2) ^ half2) - half2
                    b0 = ((s & mask) ^ half) - half
                    p2 = (p1 * s - b0 * t) // p0w
                    if p2:
                        break
                else:
                    return 0
                if r > 1:
                    live[1], live[r] = live[r], live[1]
                    sign = -sign
                sec = live[1]
                # for each v: x and a0, f * sec, then e * top from them
                live = [(p2 * v
                         - (p1 * (x := ((v & mask2) ^ half2) - half2)
                            - (a0 := ((x & mask) ^ half) - half) * t)
                         // p0w * sec
                         + (b0 * x - a0 * s) // p0w * top)
                        // prev >> w2 for v in live[2:]]
                prev = p2
            steps &= 1
        for _ in range(steps):
            if not live[0] & mask:
                if not _swap_lead(live, mask):
                    return 0
                sign = -sign
            top = live[0]
            pivot = ((top & mask) ^ half) - half
            live = [(v * pivot - (((v & mask) ^ half) - half) * top)
                    // prev >> w for v in live[1:]]
            prev = pivot
        if end == n - 1:
            # one row of one slot: the packed value is the entry itself
            return sign * live[0]
        k = end
