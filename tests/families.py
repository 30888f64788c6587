"""Seeded inputs for the tests, built from the standard library alone.

Every function returns rows: square lists of ints whose columns are the
basis vectors, or a subset's vectors, as in the CLI's matrix format; a
test wraps them as ``BasisMatrix(rows)`` or ``Subset(zip(*rows))``.
Every draw comes from the ``random.Random`` the caller passes.  Nothing
here imports ``cubiquity`` or ``helpers`` (the oracles), so no input
borrows from the code it checks, and ``bench/`` can import it too.
``mix`` and ``signed_permutation`` hide an input's structure and keep
whether it is cubiquitous; ``FAMILIES`` states the answers that follow
from construction, which ``tests/test_families.py`` re-checks.
"""

import itertools
from math import isqrt, prod
from typing import Callable, NamedTuple


def lower(diag, fill=lambda i, j: 0):
    """Lower-triangular rows with the given diagonal and ``fill(i, j)`` at
    each place below it, called row by row from the left."""
    n = len(diag)
    return [[diag[i] if j == i else fill(i, j) if j < i else 0
             for j in range(n)] for i in range(n)]


def dense(rng, n, low, high):
    """n x n rows of entries drawn from [low, high], row by row."""
    return [[rng.randint(low, high) for _ in range(n)] for _ in range(n)]


def nonsingular(rng, n, low, high):
    """``dense`` rows, drawn again until they are independent."""
    while True:
        rows = dense(rng, n, low, high)
        # fraction-free elimination: each pass clears the first column with
        # a row that is nonzero there, and fails where no row is
        m = rows
        while m and any(r[0] for r in m):
            top = next(r for r in m if r[0])
            m = [[a * top[0] - r[0] * b for a, b in zip(r[1:], top[1:])]
                 for r in m if r is not top]
        if not m:
            return rows


def mix(rows, rng, steps, bound=2):
    """Rows of another basis of the same lattice, after ``steps`` random
    column steps.  Each step picks two columns and, with probability 1/5,
    negates the first; otherwise it adds k times the second to it, with
    0 < |k| <= bound.  At n = 1 no step is taken."""
    n = len(rows)
    cols = [list(c) for c in zip(*rows)]
    for _ in range(steps if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            cols[i] = [-a for a in cols[i]]
        else:
            r = rng.randrange(2 * bound)  # k = -bound .. -1, 1 .. bound
            k = r - bound + (r >= bound)
            cols[i] = [a + k * b for a, b in zip(cols[i], cols[j])]
    return [list(r) for r in zip(*cols)]


def signed_permutation(rows, rng):
    """Rows of the lattice's image under a random signed permutation of the
    coordinates, with its basis vectors shuffled.  Cubes map to cubes, so
    the image is cubiquitous exactly when the lattice is."""
    n = len(rows)
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    out = [None] * n
    for i, row in enumerate(rows):
        out[perm[i]] = [signs[perm[i]] * a for a in row]
    cols = list(zip(*out))
    rng.shuffle(cols)
    return [list(r) for r in zip(*cols)]


def signed_mix(rows, rng):
    """``signed_permutation``, then 2n steps of ``mix``."""
    return mix(signed_permutation(rows, rng), rng, 2 * len(rows))


def _divisors(m):
    """The divisors of m > 0, ascending."""
    small = [k for k in range(1, isqrt(m) + 1) if m % k == 0]
    return small + [m // k for k in reversed(small) if k * k != m]


def random_hnf(rng, n, d):
    """Rows of a random Hermite form of determinant d: each diagonal entry
    a random divisor of what is left of d, then each row's entries below
    the diagonal drawn from [0, its diagonal entry)."""
    diag = []
    for _ in range(n - 1):
        diag.append(rng.choice(_divisors(d)))
        d //= diag[-1]
    diag.append(d)
    return lower(diag, lambda i, j: rng.randrange(diag[i]))


def hnf_rows(n, dets):
    """Rows of every n x n Hermite form with determinant in ``dets``."""
    out = []
    for d in dets:
        for diag in itertools.product(_divisors(d), repeat=n):
            if prod(diag) != d:
                continue
            ranges = [range(diag[i]) for i in range(n) for _ in range(i)]
            for fill in itertools.product(*ranges):
                below = iter(fill)
                out.append(lower(diag, lambda i, j: next(below)))
    return out


def cyclic(c, N):
    """Rows of the lattice {x : sum c_k x_k = 0 mod N}, for a c whose last
    entry is 1; its quotient is cyclic of order N."""
    n = len(c)
    return lower([1] * (n - 1) + [N],
                 lambda i, j: -c[j] % N if i == n - 1 else 0)


def chain(rng, n):
    """2s on the diagonal and a random 0/1 fill below: a Hajos basis, of
    index 2^n."""
    return lower([2] * n, lambda i, j: rng.randrange(2))


def triangle(rng, n, twos):
    """A 1-2 triangle: ``twos`` 2s and n - twos 1s on the diagonal, in a
    random order, and a random 0/1 fill below.  It is cubiquitous, of
    index 2^twos."""
    diag = [2] * twos + [1] * (n - twos)
    rng.shuffle(diag)
    return lower(diag, lambda i, j: rng.randrange(2))


#: Orthogonal blocks by name.  Each is symmetric, so its rows are its
#: vectors.  By the paper's classification, an orthogonal block sum is
#: cubiquitous exactly when every block is one of CUBIQUITOUS_BLOCKS.
BLOCKS = {
    "Unit": [[1]],
    "TwoTimes": [[2]],
    "Three": [[3]],
    "Five": [[5]],
    "Hyper2x2": [[1, 1], [1, -1]],
    "Anti3": [[0, 3], [3, 0]],
    "Skew2": [[1, 2], [2, -1]],
    "Norm25": [[3, 4], [4, -3]],
    "Norm9": [[1, 2, 2], [2, 1, -2], [2, -2, 1]],
    "Hadamard4": [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1],
                  [1, -1, -1, 1]],
}
CUBIQUITOUS_BLOCKS = ("Unit", "TwoTimes", "Hyper2x2")


def block_sum(names):
    """Rows of the orthogonal direct sum of the named blocks, in order."""
    n = sum(len(BLOCKS[name]) for name in names)
    rows = []
    for name in names:
        block = BLOCKS[name]
        left = len(rows)
        rows += [[0] * left + row + [0] * (n - left - len(row))
                 for row in block]
    return rows


def block_names(rng, n, pool=tuple(BLOCKS)):
    """Names drawn from ``pool``, which must hold "Unit", whose blocks
    fill n coordinates: a block that does not fit is drawn again."""
    names, used = [], 0
    while used < n:
        name = rng.choice(pool)
        if used + len(BLOCKS[name]) <= n:
            names.append(name)
            used += len(BLOCKS[name])
    return names


def orthogonal_sum(rng, n, pool=tuple(BLOCKS)):
    """Rows of a signed-permuted sum of random blocks from ``pool``, n
    coordinates in all."""
    return signed_permutation(block_sum(block_names(rng, n, pool)), rng)


def subsets(rng, count):
    """Rows of random subsets at n = 0-12, in turn dense, sparse, a
    non-positive chain and an orthogonal block sum, signed-permuted, so
    that each predicate on subsets meets both answers."""
    out = []
    for k in range(count):
        n = rng.randint(0, 12)
        kind = k % 4
        if kind == 0:
            rows = dense(rng, n, -3, 3)
        elif kind == 1:
            rows = [[rng.choice((-2, -1, 1, 2)) if rng.random() < 0.2 else 0
                     for _ in range(n)] for _ in range(n)]
        elif kind == 2:
            # vector j meets only its neighbours, with product -b_j a_(j+1)
            # <= 0, so dominance of the norms decides non-acuteness
            rows = lower([rng.randint(1, 3) for _ in range(n)],
                         lambda i, j: -rng.randint(0, 3) if j == i - 1 else 0)
        else:
            rows = block_sum(block_names(rng, n))
        out.append(signed_permutation(rows, rng))
    return out


class Family(NamedTuple):
    """Inputs whose answer follows from how they are built.  ``status``
    spells it as `cubiquity.Status` does: "Cubiquitous", "NotCubiquitous",
    or "Obstructed" for |det| > 2^n, where the 2^n corners of a cube
    cannot meet all |det| cosets, so the lattice is not cubiquitous
    either.  ``draw(rng, n)`` returns (rows, witness), where the witness
    is a point whose unit cube misses the lattice, or None."""
    status: str
    draw: Callable


def _factor_at(rng, n):
    """A signed-mixed 1-2 triangle with the entries of one coordinate j
    times f >= 3: every lattice vector has x_j divisible by f, and neither
    1 nor 2 is, so the cube at e_j misses the lattice."""
    rows = signed_mix(triangle(rng, n, rng.randint(0, n)), rng)
    j, f = rng.randrange(n), rng.randint(3, 5)
    rows[j] = [f * a for a in rows[j]]
    return rows, tuple(int(k == j) for k in range(n))


FAMILIES = {
    # cubiquitous by the paper's triangle lemma
    "1-2 triangle": Family("Cubiquitous", lambda rng, n: (
        signed_mix(triangle(rng, n, rng.randint(0, n)), rng), None)),
    # 2s on the diagonal: a Hajos basis, so cubiquitous at index 2^n
    "Hajos chain": Family("Cubiquitous", lambda rng, n: (
        signed_mix(chain(rng, n), rng), None)),
    # index 2^n from n >= 2, but no row order has 2 at every pivot
    "diag(4, 1, 2, ...)": Family("NotCubiquitous", lambda rng, n: (
        signed_mix(lower(((4, 1) + (2,) * n)[:n]), rng), None)),
    "index above 2^n": Family("Obstructed", lambda rng, n: (
        signed_mix(random_hnf(rng, n, rng.randint(2 ** n + 1, 2 ** (n + 1))),
                   rng), None)),
    "factor at e_j": Family("NotCubiquitous", _factor_at),
}
