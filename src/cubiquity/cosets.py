"""The brute-force oracle's arithmetic on the cosets of Z^n modulo L.

Z^n/L is written as a product of cyclic groups, presented straight from
the basis modulo N = |det| (N times Z^n lies in L, so no Hermite form is
needed), and a set of cosets as the bits of one integer in mixed radix, so
that adding an element to every coset of a set is one masked rotation per
cyclic factor.  ``obstructions.is_cubiquitous_bruteforce`` loads this
module on its first call, so a program that runs no brute force never
compiles it.
"""

from __future__ import annotations

from math import gcd
from typing import Optional

from .lattice import BasisMatrix, Vector


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


def _diagonalize(basis: BasisMatrix) -> tuple[tuple[int, ...],
                                              tuple[Vector, ...]]:
    """Z^n modulo the lattice as a product of cyclic groups.

    Returns ``(moduli, images)``: Z^n/L is isomorphic to the product of
    Z/m over the moduli, all above 1, and ``images[k]`` is the image of
    e_k there.  The basis columns are relations among the generators e_k,
    and N = |det| times Z^n lies in L, so with the relations N e_k they
    present Z^n/L and everything is reduced modulo N.

    * Tietze moves.  In column order, a relation whose coefficient u at a
      live generator e_i is a unit modulo N (the first such i) gives
      e_i = -u^-1 times the rest of the relation.  One column operation
      clears e_i from each other live relation, and e_i and the relation
      are dropped.
    * The square core that is left gets one Smith elimination to a
      diagonal D = U C V, and x -> U x modulo D is the isomorphism on the
      live generators, so only U is kept, beside each row.  A diagonal
      entry d leaves the factor Z/gcd(d, N).  Pivots of least gcd with N
      come first, so a unit clears its column at once and leaves a Z/1,
      dropped.
    * The images of the dropped generators follow by back-substitution,
      in reverse order, one pass over the generators per cyclic factor.
    """
    n = basis.n
    N = abs(basis.det)
    rels = [[a % N for a in col] for col in basis.columns]
    live = list(range(n))
    solved = []  # (i, ts, cs): e_i = sum of c e_t over zip(ts, cs), in order
    core = []
    for j, rel in enumerate(rels):
        for i in live:
            if gcd(rel[i], N) == 1:
                break
        else:
            core.append(rel)
            continue
        live.remove(i)
        inv = pow(rel[i], -1, N)
        ts = [t for t in live if rel[t]]
        solved.append((i, ts, [-inv * rel[t] % N for t in ts]))
        for other in core + rels[j + 1:]:
            q = other[i] * inv % N
            if q:
                for t in ts:
                    other[t] = (other[t] - q * rel[t]) % N
    s = len(live)
    rows = [[rel[i] for rel in core] + [int(i == g) for g in live]
            for i in live]
    for k in range(s):
        # the smaller its gcd with N, the more entries a pivot divides
        best, least = k, N + 1
        for i in range(k, s):
            g = gcd(rows[i][k], N)
            if g < least:
                best, least = i, g
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
            for j in range(k + 1, s):
                if rk[j] % g:
                    break
            else:
                break
            x, y, g = _xgcd(p, rk[j])
            p_g, b_g = p // g, rk[j] // g
            for r in rows[k:]:
                u, v = r[k], r[j]
                r[k] = (x * u + y * v) % N
                r[j] = (p_g * v - b_g * u) % N
    moduli = []
    factors = []  # per modulus, the component of every e_k's image
    for k, row in enumerate(rows):
        m = gcd(row[k], N)
        if m == 1:
            continue
        image = [0] * n
        for j, i in enumerate(live):
            image[i] = row[s + j] % m
        for i, ts, cs in reversed(solved):
            total = 0
            for t, c in zip(ts, cs):
                total += c * image[t]
            image[i] = total % m
        moduli.append(m)
        factors.append(image)
    images = tuple(zip(*factors)) if factors else ((),) * n
    return tuple(moduli), images


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
    """The lexicographically first x >= 0 whose cube x + {0,1}^n misses
    the lattice, or None when every cube meets it.  It lies in the HNF
    box, so it is also the first such point of the box.

    The cube meets L iff -x is congruent to a 0/1 vector, that is, iff the
    coset of -x is a sum of distinct e_k.  Those sums are reached with one
    rotation per coordinate, stopping once every coset is reached.
    """
    n = basis.n
    order = abs(basis.det)
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
    # -x is the sum of x_k (-e_k).  Let H be the subgroup spanned by the
    # e_j with j > k.  A prefix ending at x_k extends to a witness iff its
    # -x lies in missed + H.  Those sets are built from the last coordinate
    # back, each from the next by doubling, until a doubling adds nothing:
    # then the union of the translates by 0, -1, ..., -(2^(t+1) - 1) times
    # e_k equals the union up to -(2^t - 1), and so does every later one.
    saturated = [full] * n
    cosets = full ^ reached
    for k in range(n - 1, -1, -1):
        if cosets == full:
            break
        saturated[k] = cosets
        step = 1
        while k and cosets != full:
            grown = cosets | _translate(
                cosets, [-c * step % m for c, m in zip(images[k], moduli)],
                blocks)
            if grown == cosets:
                break
            cosets = grown
            step *= 2
    # Then each coordinate takes its first good value x_k.  Whether a value
    # is good repeats with period d_k, the HNF diagonal entry (d_k e_k lies
    # in L + H), so x_k < d_k and the witness lies in the HNF box.  x_k is
    # found by halving.  T_0 = saturated[k], and T_(t+1), T_t united with
    # T_t + 2^t e_k, holds the point iff x_k < 2^(t+1).  Once x_k >= 2^t,
    # the point minus 2^t e_k lies in T_t iff x_k < 2^(t+1); if not,
    # T_(t+1) is built.  Then x_k is read one level down at a time, in about
    # 2 log2 x_k rotations and bit tests.
    strides = [stride for stride, _, _ in blocks]
    point = [0] * len(moduli)
    witness = [0] * n

    def holds(cosets, at):
        return cosets >> sum(c * s for c, s in zip(at, strides)) & 1

    for k in range(n):
        if saturated[k] == full:
            continue  # x_k = 0 is the first good value
        g = images[k]
        levels = [saturated[k]]
        ahead, step = point, 0  # x_k >= step, and ahead is point - step e_k
        while not holds(levels[-1], ahead):
            if step:  # x_k >= 2 step
                top = levels[-1]
                grown = top | _translate(
                    top, [c * step % m for c, m in zip(g, moduli)], blocks)
                if grown == top:
                    raise AssertionError(f"no witness at coordinate {k + 1}")
                levels.append(grown)
            step = 1 << len(levels) - 1
            ahead = [(c - a * step) % m for c, a, m in zip(point, g, moduli)]
        point = ahead
        witness[k] = step
        for t in range(len(levels) - 2, -1, -1):
            if not holds(levels[t], point):
                witness[k] += 1 << t
                point = [(c - (a << t)) % m
                         for c, a, m in zip(point, g, moduli)]
    return tuple(witness)
