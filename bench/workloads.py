"""Seeded input generators for the four benchmark workloads.

``plan(workload, seed)`` draws the lattices and subsets and computes their
ground truth with the benchmark's own oracle (``oracle.py``).  That work is
done once per run and is not part of set-up time.  ``Case.argv()`` renders
an input as the matrix text the CLI receives; rendering plus importing the
package is what ``setup_s`` times.  Nothing here imports ``cubiquity``.

Every class of input has a fixed count per pass.  The classes in which the
median and the tail percentile fall have fixed work (orders tried,
membership solves), and the other expensive classes are the median of
several draws, which keeps the per-seed spread of the timings small.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from math import factorial

import oracle


@dataclass
class Case:
    """One CLI call: the command, its matrix, and what the answer must be."""

    command: str
    label: str
    rows: list | None = None          # columns are the basis vectors
    extra: tuple[str, ...] = ()
    truth: dict = field(default_factory=dict)

    def argv(self) -> list[str]:
        args = [self.command]
        if self.rows is not None:
            args += ["--matrix", "; ".join(" ".join(map(str, r))
                                           for r in self.rows)]
        return args + list(self.extra)


# ---------------------------------------------------------------- helpers

def mix(rows, rng):
    """Change of basis by 2n random unimodular column operations."""
    n = len(rows)
    m = [list(r) for r in rows]
    for _ in range(2 * n):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-1, 1))
        for r in m:
            r[j] += k * r[i]
    for j in range(n):
        if rng.random() < 0.5:
            for r in m:
                r[j] = -r[j]
    return m


def signed_permutation(rows, rng):
    """The lattice's image under a random signed permutation of
    coordinates.  Cubes map to cubes, so cubiquity is unchanged."""
    n = len(rows)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    return [[signs[i] * v for v in rows[perm[i]]] for i in range(n)]


def lower(diag, fill):
    """Lower-triangular rows with the given diagonal and fill(i, j) below."""
    n = len(diag)
    return [[diag[i] if i == j else (fill(i, j) if i > j else 0)
             for j in range(n)] for i in range(n)]


def scan_work(rows):
    """Membership solves a lexicographic brute-force scan of the HNF box
    makes before it stops: per coset, vertices tried until one lies in L;
    at the first witness, all 2^n.  Exact, in O(2^n + |det|)."""
    lat = oracle.Lattice(rows)
    first = {}
    for k, eps in enumerate(itertools.product((0, 1), repeat=lat.n)):
        first.setdefault(lat.reduce(eps), k + 1)
    work = 0
    for x in itertools.product(*(range(d) for d in lat.diag)):
        hit = first.get(lat.reduce([-a for a in x]))
        if hit is None:
            return work + 2 ** lat.n
        work += hit
    return work


def median_draw(draw, cost, tries=5):
    """Of several draws, the one whose cost is the median."""
    cands = sorted((draw() for _ in range(tries)), key=cost)
    return cands[len(cands) // 2]


def unrank(rank, n):
    """The permutation of range(n) at 1-based lexicographic position."""
    rest = list(range(n))
    out = []
    rank -= 1
    for i in range(n - 1, -1, -1):
        q, rank = divmod(rank, factorial(i))
        out.append(rest.pop(q))
    return tuple(out)


def chain(n):
    """The Hajos chain: 2 on the diagonal, 1 just below, 0 elsewhere.
    Its only Hajos row order is the identity."""
    return lower([2] * n, lambda i, j: 1 if i == j + 1 else 0)


def full_chain(n):
    """2 on the diagonal and 1 everywhere below; also one good order."""
    return lower([2] * n, lambda i, j: 1)


def no_hajos(n):
    """diag(4, 1, 2, ..., 2): index 2^n but no Hajos basis in any order."""
    return lower([4, 1] + [2] * (n - 2), lambda i, j: 0)


def block_sum(blocks):
    """Direct sum of square blocks (lists of vectors) on disjoint
    coordinates; returns the vectors."""
    n = sum(len(b) for b in blocks)
    out, off = [], 0
    for b in blocks:
        k = len(b)
        for v in b:
            out.append([0] * off + list(v) + [0] * (n - off - k))
        off += k
    return out


def vectors_to_rows(vectors):
    n = len(vectors)
    return [[vectors[j][i] for j in range(n)] for i in range(n)]


def shuffle_subset(vectors, rng):
    """Signed permutation of coordinates and a permutation of vectors."""
    n = len(vectors)
    perm = rng.sample(range(n), n)
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    vecs = [[signs[i] * v[perm[i]] for i in range(n)] for v in vectors]
    rng.shuffle(vecs)
    return vecs


# ------------------------------------------------------------------ scan

def _cubiquitous_triangle(n, twos, rng):
    """Lower triangle with `twos` diagonal 2s and the rest 1s, 0/1 fill.
    Any integer triangle with diagonal entries in {1, 2} is cubiquitous:
    coefficients can be chosen coordinate by coordinate."""
    diag = [2] * twos + [1] * (n - twos)
    rng.shuffle(diag)
    return signed_permutation(
        lower(diag, lambda i, j: rng.randint(0, 1)), rng)


def _random_hnf(n, rng):
    """A random HNF with 1 < det < 2^n that misses some cube."""
    while True:
        d = rng.randrange(3, 2 ** n)
        diag, rem = [], d
        for _ in range(n - 1):
            k = rng.choice([x for x in range(1, rem + 1) if rem % x == 0])
            diag.append(k)
            rem //= k
        diag.append(rem)
        rng.shuffle(diag)
        rows = lower(diag, lambda i, j: rng.randrange(diag[i]))
        if not oracle.cover_oracle(rows):
            return rows


def _fixed_triangle(diag, rng):
    """A lower triangle with the given diagonal and a 0/1 fill that is the
    same for every seed, under random coordinate signs.  Reflections keep
    the Hermite form, so every seed gives the program the same work; only
    the basis it is written in changes (``mix``)."""
    fill = random.Random(str(diag))
    rows = lower(diag, lambda i, j: fill.randint(0, 1))
    signs = [rng.choice((-1, 1)) for _ in diag]
    return [[sign * v for v in row] for row, sign in zip(rows, signs)]


def _early10(rng):
    """A cubiquitous 9-dim triangle of index 2^8 with a [3] block on the
    last coordinate: index 768 < 2^10, first witness second in the box."""
    inner = _fixed_triangle([2] * 4 + [1] + [2] * 4, rng)
    return [row + [0] for row in inner] + [[0] * 9 + [3]]


def _late_witness(n, rng):
    """A cubiquitous (n-1)-dim triangle with a [3] block on the first
    coordinate: the first witness sits a third of the way into the box."""
    inner = _cubiquitous_triangle(n - 1, n - 2, rng)
    return [[3] + [0] * (n - 1)] + [[0] + r for r in inner]


def _catalog():
    a = [[1, 1, 1, 1, 0, 0, 0, 0], [1, -1, -1, -1, 0, 0, 0, 0],
         [0, 1, -1, -1, 1, 0, 0, 0], [0, -1, 1, 1, 1, 0, 0, 0],
         [0, 0, 1, -1, 0, 1, 1, 0], [0, 0, -1, 1, 0, 1, -1, 0],
         [0, 0, 1, -1, 0, 0, -1, 1], [0, 0, -1, 1, 0, 0, 1, 1]]
    b = [[1, 1, 1, 1, 0, 0, 0, 0], [1, -1, -1, -1, 0, 0, 0, 0],
         [0, -1, 1, 0, 1, 1, 0, 0], [0, 1, -1, 0, 1, -1, 0, 0],
         [0, 1, 0, -1, 0, 1, 1, 0], [0, -1, 0, 1, 0, -1, 1, 0],
         [0, 0, -1, 1, 0, 1, 0, 1], [0, 0, 1, -1, 0, -1, 0, 1]]
    return a, b


def _check(label, rows, rng, extra=()):
    """A `check` case with its ground truth from the coset-cover oracle."""
    truth = {"cubiquitous": oracle.cover_oracle(rows),
             "det": abs(oracle.det(rows))}
    return Case("check", label, mix(rows, rng), tuple(extra), truth)


def plan_scan(rng):
    """`check` where the det gate is inconclusive and brute force decides.

    Sorted by cost, a pass is: 38 cheap inputs, 24 early witnesses at
    n = 10 (the median falls inside them), 22 mid-cost scans, 14 full
    scans at n = 9 (p90 falls inside them) and the two Hajos chains.
    The classes that hold the median and p90 are one lattice each up to
    coordinate reflections, so those percentiles do not move with the
    seed; the other classes are drawn afresh.
    """
    cases = []
    for _ in range(4):
        # index 3 * 2^10 at n = 13: below 2^13, but index * 2^13 is past
        # the default cap of 2^24, so `check` answers Inconclusive
        rows = _cubiquitous_triangle(13, 10, rng)
        rows[0] = [3 * v for v in rows[0]]
        cases.append(_check("pastcap13", rows, rng))
    for rows in _catalog():
        cases.append(_check("catalog", rows, rng))
    for n in (6, 7, 8, 9):
        for _ in range(8):
            cases.append(_check(f"early{n}", _random_hnf(n, rng), rng))
    for _ in range(24):
        cases.append(_check("early10", _early10(rng), rng))
    for n in (7, 8):
        for _ in range(8):
            rows = median_draw(lambda: _cubiquitous_triangle(n, n - 1, rng),
                               scan_work)
            cases.append(_check(f"full{n}", rows, rng))
    for n in (8, 9):
        for _ in range(3):
            rows = median_draw(lambda: _late_witness(n, rng), scan_work)
            cases.append(_check(f"late{n}", rows, rng))
    for _ in range(14):
        rows = _fixed_triangle([1] + [2] * 8, rng)
        cases.append(_check("full9", rows, rng))
    # index 2^n past --perm-cap: a full scan each; chain10 is the ROADMAP
    # n = 10 case
    cases.append(_check("chain9", full_chain(9), rng))
    cases.append(_check("chain10", chain(10), rng))
    return cases


# ----------------------------------------------------------------- hajos

def _hajos_case(command, label, base, rank, rng):
    """Rows whose lexicographically first Hajos order is the permutation
    at `rank`: row order[i] of the input is row i of the chain."""
    n = len(base)
    order = unrank(rank, n)
    rows = [None] * n
    signs = [rng.choice((-1, 1)) for _ in range(n)]
    for i, r in enumerate(order):
        rows[r] = [signs[i] * v for v in base[i]]
    return Case(command, label, mix(rows, rng), (),
                {"cubiquitous": True, "orders": rank, "det": 2 ** n})


def plan_hajos(rng):
    """`check` and `hajos` on index-2^n lattices: one HNF per row order.

    The first Hajos order sits at fixed shares of n!, jittered by 2%, so
    each input's work is fixed while the permutation is random.  Sorted
    by cost, a pass is four tiers, each a few times dearer than the last:
    22 cheap inputs at n = 5 and n = 9 (refused); 16 at n = 6 (the median
    falls in their middle); 18 at n = 7-8 (p80 falls in their middle);
    and the 3 inputs with no Hajos basis at n = 7-8.
    """
    cases = []
    shares = ((5, (0.05, 0.15, 0.25, 0.35, 0.45, 0.55, 0.65, 0.75, 0.85)),
              (6, (0.5,) * 7), (7, (0.3,) * 5), (8, (0.035,) * 4))
    for command in ("check", "hajos"):
        for n, fracs in shares:
            total = factorial(n)
            for f in fracs:
                rank = max(1, round(total * f * rng.uniform(0.98, 1.02)))
                cases.append(_hajos_case(command, f"rank{n}", chain(n),
                                         rank, rng))
        for n in (5, 6, 7):
            rows = signed_permutation(no_hajos(n), rng)
            cases.append(Case(command, f"none{n}", mix(rows, rng), (),
                              {"cubiquitous": False, "det": 2 ** n,
                               "orders": factorial(n)}))
    # past the default --perm-cap of 8: `hajos` refuses before any search
    # (`check` would fall through to brute force, which this workload avoids)
    for _ in range(2):
        cases.append(_hajos_case("hajos", "chain9", chain(9),
                                 rng.randint(1, factorial(9)), rng))
    # the ROADMAP case: no Hajos basis at n = 8, all 8! orders
    rows = signed_permutation(no_hajos(8), rng)
    cases.append(Case("hajos", "none8", mix(rows, rng), (),
                      {"cubiquitous": False, "det": 2 ** 8,
                       "orders": factorial(8)}))
    for case in cases:
        found = oracle.first_hajos_order(case.rows)
        case.truth["first_order"] = found
        expected = (oracle.permutation_rank(found) if found is not None
                    else factorial(len(case.rows)))
        if ((found is not None) != case.truth["cubiquitous"]
                or expected != case.truth["orders"]):
            raise AssertionError(f"generator broke {case.label}")
    return cases


# ------------------------------------------------------------- structure

def _orthogonal_block(kind, rng):
    if kind == "Unit":
        return [[rng.choice((-1, 1))]]
    if kind == "TwoTimes":
        return [[rng.choice((-2, 2))]]
    if kind == "Three":
        return [[rng.choice((-3, 3))]]
    if kind == "Hyper2x2":
        return [[1, 1], [1, -1]]
    if kind == "Skew2":
        return [[1, 2], [2, -1]]
    if kind == "Hadamard4":
        return [[1, 1, 1, 1], [1, -1, 1, -1], [1, 1, -1, -1], [1, -1, -1, 1]]
    if kind == "Norm9":
        return [[1, 2, 2], [2, 1, -2], [2, -2, 1]]
    raise ValueError(kind)


GOOD = ("Unit", "TwoTimes", "Hyper2x2")
ODD_BLOCKS = ("Three", "Skew2", "Hadamard4", "Norm9")


def _fill(size, pattern):
    """Kinds taken from `pattern` in turn, skipping any that would
    overflow, until they fill `size` coordinates.  Every pattern holds a
    one-coordinate kind, so the fill always completes."""
    kinds, used, k = [], 0, 0
    while used < size:
        kind = pattern[k % len(pattern)]
        k += 1
        if used + SIZES[kind] <= size:
            kinds.append(kind)
            used += SIZES[kind]
    return kinds


SIZES = {"Unit": 1, "TwoTimes": 1, "Three": 1, "Hyper2x2": 2, "Skew2": 2,
         "Hadamard4": 4, "Norm9": 3, "NonAcute2": 2, "NonAcute3": 3}


def _orthogonal_subset(n, rng, good_share):
    """Vectors of a signed-permuted block sum of orthogonal blocks.

    The block kinds follow a fixed recipe for (n, share), so the work per
    input does not depend on the seed; the seed picks the signs, the
    coordinate and vector order, and Unit against TwoTimes."""
    good = round(n * good_share)
    kinds = _fill(good, ("Hyper2x2", "Unit"))
    kinds += _fill(n - good, ("Skew2", "Three", "Norm9", "Hadamard4"))
    kinds = [rng.choice(("Unit", "TwoTimes")) if k == "Unit" else k
             for k in kinds]
    blocks = [_orthogonal_block(k, rng) for k in kinds]
    return shuffle_subset(block_sum(blocks), rng), kinds


def _non_acute_subset(n, rng, obstructed):
    """Block sum mixing orthogonal blocks with non-acute, non-orthogonal
    ones: {(2,1), (-1,1)} and {(1,1,0), (0,-1,x), (-1,1,0)}.  The recipe,
    x and Unit against TwoTimes cycle in a fixed order, so the Wu verdict
    of each input is the same for every seed: [3] blocks make it fire."""
    blocks = []
    xs = itertools.cycle((1, 2, 3, -1, -2, -3))
    ones = itertools.cycle(("Unit", "TwoTimes"))
    pattern = ("NonAcute3", "NonAcute2", "Unit") + ("Three",) * obstructed
    for kind in _fill(n, pattern):
        if kind == "NonAcute3":
            blocks.append([[1, 1, 0], [0, -1, next(xs)], [-1, 1, 0]])
        elif kind == "NonAcute2":
            blocks.append([[2, 1], [-1, 1]])
        else:
            one = next(ones) if kind == "Unit" else kind
            blocks.append(_orthogonal_block(one, rng))
    return shuffle_subset(block_sum(blocks), rng)


def _dense(n, rng):
    while True:
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        d = abs(oracle.det(rows))
        if d > 2 ** n:
            return rows, d


def plan_structure(rng):
    """Polynomial routes at n = 16-64: no exponential scan runs."""
    cases = []
    for n in (16, 24, 32, 48, 64):
        for share in (1.0, 0.8, 0.6) * 2:
            vecs, kinds = _orthogonal_subset(n, rng, share)
            cases.append(Case("classify", f"classify{n}",
                              vectors_to_rows(vecs), (),
                              {"cubiquitous": all(k in GOOD for k in kinds),
                               "kinds": sorted(kinds)}))
        for _ in range(3):
            vecs, _ = _orthogonal_subset(n, rng, 0.9)
            cases.append(Case("stats", f"stats{n}", vectors_to_rows(vecs)))
        for k in range(5):
            vecs = _non_acute_subset(n, rng, k % 2 == 0)
            cases.append(Case("wu", f"wu{n}", vectors_to_rows(vecs)))
        for _ in range(3):
            rows, d = _dense(n, rng)
            cases.append(Case("check", f"dense{n}", rows, (),
                              {"cubiquitous": False, "det": d}))
    for n, count in ((16, 3), (24, 4), (32, 2), (45, 2), (60, 2)):
        for _ in range(count):
            vecs, _ = _orthogonal_subset(n, rng, 0.85)
            cases.append(Case("reduce", f"reduce{n}", vectors_to_rows(vecs)))
    table = oracle.det4_table(50)
    for _ in range(2):
        cases.append(Case("det4", "det4", None, ("--zeros",),
                          {"table": table}))
    return cases


# -------------------------------------------------------------- cold_cli

def plan_cold_cli(rng):
    """Tiny inputs, so interpreter start and import dominate."""
    cases = []
    for _ in range(4):
        for rows in (lower([2, 2], lambda i, j: rng.randint(0, 1)),
                     [[3, 0], [0, 1]],
                     [[2, 1, 0], [1, 2, 1], [0, 1, 3]],
                     lower([2, 1, 2], lambda i, j: rng.randint(0, 1))) * 2:
            cases.append(_check("tiny", signed_permutation(rows, rng), rng))
        # index 6 * 2^3 is past a cap of 4: Inconclusive
        rows = signed_permutation(lower([3, 1, 2], lambda i, j: 0), rng)
        cases.append(_check("tinycap", rows, rng, ("--cap", "4")))
        for share in (1.0, 0.75, 0.5):
            vecs, kinds = _orthogonal_subset(4, rng, share)
            cases.append(Case("classify", "tiny", vectors_to_rows(vecs), (),
                              {"cubiquitous": all(k in GOOD for k in kinds),
                               "kinds": sorted(kinds)}))
        for n in (2, 3, 3):
            rank = rng.randint(1, factorial(n))
            case = _hajos_case("hajos", "tiny", chain(n), rank, rng)
            case.truth["first_order"] = unrank(rank, n)
            cases.append(case)
    return cases


PLANS = {"scan": plan_scan, "hajos": plan_hajos,
         "structure": plan_structure, "cold_cli": plan_cold_cli}
WORKLOADS = tuple(PLANS)


def plan(workload: str, seed: int) -> list[Case]:
    """The workload's cases for this seed, in a seeded shuffled order."""
    rng = random.Random(f"{workload}:{seed}")
    cases = PLANS[workload](rng)
    rng.shuffle(cases)
    return cases
