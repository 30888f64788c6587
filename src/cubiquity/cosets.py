"""The brute-force oracle's arithmetic on the cosets of Z^n modulo L.

Z^n/L is written as a product of cyclic groups, and a set of cosets as
the bits of one integer in mixed radix, so that adding an element to
every coset of a set is one masked rotation per cyclic factor.
``obstructions.is_cubiquitous_bruteforce`` imports this module on its
first call, so a program that runs no brute force never compiles it.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .lattice import BasisMatrix, Vector, _xgcd


def _diagonalize(basis: BasisMatrix) -> tuple[tuple[int, ...],
                                              tuple[Vector, ...]]:
    """Z^n modulo the lattice as a product of cyclic groups.

    Returns ``(moduli, images)``: Z^n/L is isomorphic to the product of
    Z/m over the moduli, all above 1, and ``images[k]`` is the image of
    e_k there.  Read the columns of the HNF H as relations among the
    generators e_k.  An HNF row whose diagonal entry is 1 is 0 elsewhere,
    so its column gives e_k as minus the rest of that column.  One Smith
    elimination brings the other rows to a diagonal D = U H V, and
    x -> U x modulo D is the isomorphism, so only U is kept, beside each
    row.  N = |det| times Z^n lies in L, so everything is reduced modulo
    N: the steps are invertible over Z/N, and a diagonal entry d leaves
    the factor Z/gcd(d, N).  Pivots of least gcd with N come first, so a
    unit coefficient clears its column at once and leaves a Z/1, dropped.
    """
    h = basis.hnf
    hrows = h.rows
    n = h.n
    N = h.det
    gens = [k for k in range(n) if hrows[k][k] > 1]
    s = len(gens)
    rows = [[hrows[i][k] for k in gens] + [int(i == g) for g in gens]
            for i in gens]
    for k in range(s):
        # the smaller its gcd with N, the more entries a pivot divides
        best = min(range(k, s), key=lambda i: gcd(rows[i][k], N))
        rows[k], rows[best] = rows[best], rows[k]
        while True:
            rk = rows[k]
            for i in range(k + 1, s):
                ri = rows[i]
                b = ri[k]
                if not b:
                    continue
                p = rk[k]
                g = gcd(p, N)
                if b % g == 0:
                    q = b // g * pow(p // g, -1, N // g) % N
                    rows[i] = [(v - q * u) % N for u, v in zip(rk, ri)]
                    continue
                x, y, g = _xgcd(p, b)
                p_g, b_g = p // g, b // g
                rows[i] = [(p_g * v - b_g * u) % N for u, v in zip(rk, ri)]
                rk = rows[k] = [(x * u + y * v) % N for u, v in zip(rk, ri)]
            # Column k is clear below the pivot.  If the pivot divides its
            # row, the column operations that clear the row change nothing
            # else, and no later step reads the row; if not, one gcd step
            # lowers the pivot and refills column k.
            p = rk[k]
            g = gcd(p, N)
            j = next((j for j in range(k + 1, s) if rk[j] % g), None)
            if j is None:
                break
            x, y, g = _xgcd(p, rk[j])
            p_g, b_g = p // g, rk[j] // g
            for r in rows[k:]:
                u, v = r[k], r[j]
                r[k] = (x * u + y * v) % N
                r[j] = (p_g * v - b_g * u) % N
    kept = [(m, row[s:]) for m, row in
            ((gcd(row[k], N), row) for k, row in enumerate(rows)) if m > 1]
    moduli = tuple(m for m, _ in kept)
    images = [None] * n
    for j, i in enumerate(gens):
        images[i] = [u[j] for _, u in kept]
    for k in range(n):
        if images[k] is None:  # e_k is minus the rest of its HNF column
            images[k] = [-sum(hrows[i][k] * images[i][c] for i in gens)
                         for c in range(len(moduli))]
    return moduli, tuple(tuple(x % m for x, m in zip(image, moduli))
                         for image in images)


def _translate(cosets: int, by: Vector, blocks) -> int:
    """The coset set ``cosets + by``, one masked block rotation per
    component: component i turns each block of ``block`` bits by
    ``by[i] * stride`` bits, and ``rep`` repeats a pattern in every block."""
    for (stride, block, rep), t in zip(blocks, by):
        if t:
            t *= stride
            cosets = (((cosets & ((1 << block - t) - 1) * rep) << t)
                      | ((cosets >> block - t) & ((1 << t) - 1) * rep))
    return cosets


def first_missed_cube(basis: BasisMatrix) -> Optional[Vector]:
    """The first x of the HNF box, in lexicographic order, whose cube
    x + {0,1}^n misses the lattice, or None when every cube meets it.

    The cube meets L iff -x is congruent to a 0/1 vector, that is, iff the
    coset of -x is a sum of distinct e_k.  Those sums are reached with one
    rotation per coordinate, stopping once every coset is reached.
    """
    n = basis.n
    order = basis.hnf.det
    moduli, images = _diagonalize(basis)
    full = (1 << order) - 1
    blocks = []
    stride = 1
    for m in moduli:
        block = stride * m
        rep, width = 1, block  # a 1 at the foot of every block
        while width < order:
            rep |= rep << width
            width *= 2
        blocks.append((stride, block, rep & full))
        stride = block
    reached = 1  # the coset of 0, at bit 0
    for g in images:
        if reached == full:
            break
        reached |= _translate(reached, g, blocks)
    if reached == full:
        return None
    # -x is the sum of x_k (-e_k).  The box points that vanish before
    # coordinate k + 1 map one to one onto the subgroup H spanned by the
    # e_j with j > k, so a prefix ending at x_k extends to a witness iff its
    # -x lies in missed + H.  Those sets are built by doubling, from the
    # last coordinate back, until one is everything; then each coordinate
    # takes its first good value.
    diag = [row[k] for k, row in enumerate(basis.hnf.rows)]
    saturated = [full] * n
    cosets = full ^ reached
    for k in range(n - 1, -1, -1):
        if cosets == full:
            break
        saturated[k] = cosets
        step = 1
        while k and step < diag[k]:
            cosets |= _translate(
                cosets, [-c * step % m for c, m in zip(images[k], moduli)],
                blocks)
            step *= 2
    strides = [stride for stride, _, _ in blocks]
    point = [0] * len(moduli)
    witness = [0] * n
    for k in range(n):
        if diag[k] == 1 or saturated[k] == full:
            continue  # x_k = 0 is the first good value
        bits = saturated[k].to_bytes((order + 7) // 8, "little")
        for x in range(diag[k]):
            at = sum(c * s for c, s in zip(point, strides))
            if bits[at >> 3] >> (at & 7) & 1:
                witness[k] = x
                break
            point = [(c - g) % m for c, g, m in zip(point, images[k], moduli)]
        else:
            raise AssertionError(f"no witness at coordinate {k + 1}")
    return tuple(witness)
