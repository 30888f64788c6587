"""Shared test utilities: independent oracles and instance generators."""

import itertools

from cubiquity import (
    BasisMatrix,
    CubiquityVerdict,
    HajosBasis,
    Status,
    Subset,
    det4_formula,
)
from cubiquity.lattice import _membership_test, hnf_box


def cofactor_det(rows):
    """Determinant by cofactor expansion; independent of the library path."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def bruteforce_vertex_scan(basis):
    """Reference cubiquity oracle: test every cube vertex for membership.

    Scans the HNF box in lexicographic order and solves membership for all
    2^n vertices of the cube at each point, |det| * 2^n solves in all.  The
    first point whose cube misses the lattice is the witness.
    """
    n = basis.n
    member = _membership_test(basis)
    vertices = list(itertools.product((0, 1), repeat=n))
    for x in hnf_box(basis):
        if not any(member([a + e for a, e in zip(x, eps)])
                   for eps in vertices):
            return CubiquityVerdict(Status.NOT_CUBIQUITOUS, witness=x)
    return CubiquityVerdict(Status.CUBIQUITOUS)


def hajos_permutation_scan(basis):
    """Reference Hajos search: a full HNF under every row order.

    Tries the n! orders in itertools.permutations order (identity first)
    and returns the first whose HNF has 2 at every diagonal entry, or None.
    """
    n = basis.n
    if abs(basis.det) != 2 ** n:
        return None
    for order in itertools.permutations(range(n)):
        h = basis.permute_rows(order).hnf
        if all(h.rows[i][i] == 2 for i in range(n)):
            return HajosBasis(matrix=h, row_order=order)
    return None


def det4_quartic_scan(bound):
    """Reference det4 zero table: evaluate the closed form on every sorted
    tuple 1 <= a <= b <= c <= d <= bound, about bound^4 / 24 of them."""
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                for d in range(c, bound + 1):
                    if det4_formula(a, b, c, d) == 0:
                        out.append((a, b, c, d))
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def det_splits(d, parts):
    """All ordered factorisations of d into `parts` positive factors."""
    if parts == 1:
        yield (d,)
        return
    for first in range(1, d + 1):
        if d % first == 0:
            for rest in det_splits(d // first, parts - 1):
                yield (first,) + rest


def hnf_matrices(n, dets):
    """Every lower-triangular column-HNF basis with determinant in dets."""
    out = []
    positions = [(i, j) for i in range(n) for j in range(i)]
    for d in dets:
        for diag in det_splits(d, n):
            ranges = [range(diag[i]) for i, _ in positions]
            for fill in itertools.product(*ranges):
                rows = [[0] * n for _ in range(n)]
                for i in range(n):
                    rows[i][i] = diag[i]
                for (i, j), v in zip(positions, fill):
                    rows[i][j] = v
                out.append(BasisMatrix(rows))
    return out


def random_hnf(n, d, rng):
    """One random HNF basis with determinant d."""
    diag = []
    rem = d
    for _ in range(n - 1):
        k = rng.choice([k for k in range(1, rem + 1) if rem % k == 0])
        diag.append(k)
        rem //= k
    diag.append(rem)
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        rows[i][i] = diag[i]
        for j in range(i):
            rows[i][j] = rng.randrange(diag[i])
    return BasisMatrix(rows)


def unimodular_mix(basis, rng, steps):
    """Another basis of the same lattice, by random column operations.

    Needs n >= 2.
    """
    n = basis.n
    cols = [list(c) for c in basis.columns]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        if rng.random() < 0.2:
            cols[i] = [-v for v in cols[i]]
        else:
            k = rng.choice((-2, -1, 1, 2))
            cols[i] = [a + k * b for a, b in zip(cols[i], cols[j])]
    return BasisMatrix.from_columns(cols)


def signed_permutation(vectors, rng, shuffle_vectors=True):
    """Random signed coordinate permutation of a list of vectors."""
    n = len(vectors[0]) if vectors else 0
    perm = list(range(n))
    rng.shuffle(perm)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    out = []
    for v in vectors:
        w = [0] * n
        for j, x in enumerate(v):
            w[perm[j]] = signs[perm[j]] * x
        out.append(tuple(w))
    if shuffle_vectors:
        rng.shuffle(out)
    return out


# Orthogonal building blocks, each a list of vectors in its own coordinates.
BLOCK_LIBRARY = {
    "unit": [(1,)],
    "double": [(2,)],
    "triple": [(3,)],
    "five": [(5,)],
    "hyper": [(1, 1), (1, -1)],
    "anti3": [(0, 3), (3, 0)],
    "norm25": [(3, 4), (4, -3)],
}


def assemble_blocks(names):
    """Direct sum of library blocks as a list of vectors."""
    dims = [len(BLOCK_LIBRARY[nm][0]) for nm in names]
    total = sum(dims)
    vectors = []
    offset = 0
    for nm, d in zip(names, dims):
        for v in BLOCK_LIBRARY[nm]:
            vectors.append((0,) * offset + tuple(v)
                           + (0,) * (total - offset - d))
        offset += d
    return vectors


def subset_from_columns(columns):
    return Subset(tuple(c) for c in columns)
