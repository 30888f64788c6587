import collections
import itertools
import math
import random
import time

import pytest

from cubiquity import (
    BasisMatrix,
    CubiquityVerdict,
    HajosBasis,
    NotNonAcute,
    NotOrthogonal,
    ResourceLimit,
    SingularMatrix,
    Status,
    Subset,
    catalog_blocks,
    classify_orthogonal,
    contains,
    decide,
    det_gate,
    direct_sum,
    hajos_basis,
    is_cubiquitous_bruteforce,
    is_orthogonal,
    wu_element,
    wu_obstruction,
    wu_obstruction_orthogonal,
)
from cubiquity.cosets import _diagonalize
from cubiquity.lattice import _PACKED_FROM
from families import (
    BLOCKS,
    CUBIQUITOUS_BLOCKS,
    block_sum,
    chain,
    cyclic,
    dense,
    hnf_rows,
    lower,
    mix,
    orthogonal_sum,
    random_hnf,
    signed_mix,
    signed_permutation,
    triangle,
)
from helpers import (
    bench_plan,
    bruteforce_vertex_scan,
    coset_cover_reference,
    count_calls,
    first_missed_cube_reference,
    hajos_gcd_greedy,
    hajos_permutation_scan,
    hajos_prefix_dfs,
    hnf_reference,
    length_three_family,
)
from triangle import fresh_triangle


def test_wu_element_examples():
    wu = wu_element(Subset([(3,)]))
    assert wu.vector == (3,)
    assert wu.odd == (0,)

    wu = wu_element(length_three_family(3))
    assert wu.vector == (0, 1, 3)

    wu = wu_element(Subset([(1, 1), (1, -1)]))
    assert wu.vector == (2, 0)
    assert wu.even_nonzero == (0,)
    assert wu.zero == (1,)


def test_wu_obstruction_examples():
    v = wu_obstruction(Subset([(3,)]))
    assert v.status is Status.OBSTRUCTED
    assert v.inequality == (9, 1)
    # brute force confirms 3Z misses the cube at 1
    assert is_cubiquitous_bruteforce(
        BasisMatrix([[3]])).status is Status.NOT_CUBIQUITOUS

    v = wu_obstruction(Subset([(1, 1), (1, -1)]))
    assert v.status is Status.INCONCLUSIVE
    assert v.inequality == (4, 8)

    v = wu_obstruction(length_three_family(3))
    assert v.status is Status.OBSTRUCTED
    assert v.inequality == (10, 6)


def test_wu_obstruction_requires_non_acute():
    with pytest.raises(NotNonAcute):
        wu_obstruction(Subset([(1, 1), (1, 0)]))


def test_wu_obstruction_never_claims_cubiquitous():
    rng = random.Random(31)
    seen = 0
    while seen < 300:
        s = Subset(dense(rng, rng.randint(1, 4), -3, 3))
        try:
            v = wu_obstruction(s)
        except NotNonAcute:
            continue
        assert v.status in (Status.OBSTRUCTED, Status.INCONCLUSIVE)
        seen += 1


def test_wu_obstruction_orthogonal_examples():
    v = wu_obstruction_orthogonal(Subset([(3,)]))
    assert v.status is Status.OBSTRUCTED
    assert v.inequality == (6, -2)

    v = wu_obstruction_orthogonal(Subset([(1, 0), (0, 1)]))
    assert v.status is Status.INCONCLUSIVE
    # both Wu coordinates are odd, so the threshold is n - 3*2 = -4
    assert v.inequality == (-4, -4)

    v = wu_obstruction_orthogonal(Subset([(2, 0), (0, 2)]))
    assert v.status is Status.INCONCLUSIVE
    assert v.inequality == (2, 2)
    assert is_cubiquitous_bruteforce(
        BasisMatrix([[2, 0], [0, 2]])).status is Status.CUBIQUITOUS

    with pytest.raises(NotOrthogonal):
        wu_obstruction_orthogonal(Subset([(1, 1), (0, 1)]))


def test_wu_orthogonal_agrees_with_general_form():
    rng = random.Random(37)
    checked = 0
    while checked < 200:
        s = Subset(zip(*orthogonal_sum(rng, rng.randint(1, 6))))
        assert is_orthogonal(s)
        assert wu_obstruction(s).status is \
            wu_obstruction_orthogonal(s).status
        checked += 1


def test_bruteforce_identity_lattices():
    for n in (1, 2, 4, 8):
        b = BasisMatrix(lower([1] * n))
        assert is_cubiquitous_bruteforce(b).status is Status.CUBIQUITOUS


def test_bruteforce_3z_witness():
    v = is_cubiquitous_bruteforce(BasisMatrix([[3]]))
    assert v.status is Status.NOT_CUBIQUITOUS
    assert v.witness == (1,)


def test_bruteforce_witness_recheck():
    rng = random.Random(41)
    found = 0
    while found < 25:
        try:
            b = BasisMatrix(dense(rng, rng.randint(1, 3), -3, 3))
        except SingularMatrix:
            continue
        v = is_cubiquitous_bruteforce(b)
        if v.status is not Status.NOT_CUBIQUITOUS:
            continue
        found += 1
        for eps in itertools.product((0, 1), repeat=b.n):
            point = tuple(a + e for a, e in zip(v.witness, eps))
            assert contains(b, point) is False


def test_bruteforce_signed_permutation_invariance():
    rng = random.Random(43)
    for _ in range(40):
        rows = dense(rng, rng.randint(1, 3), -2, 2)
        try:
            b = BasisMatrix(rows)
        except SingularMatrix:
            continue
        base = is_cubiquitous_bruteforce(b).status
        permuted = BasisMatrix(signed_permutation(rows, rng))
        assert is_cubiquitous_bruteforce(permuted).status is base


def test_bruteforce_resource_limit():
    with pytest.raises(ResourceLimit):
        is_cubiquitous_bruteforce(BasisMatrix([[9, 0], [0, 9]]), cap=100)


def _verdict_agrees(b):
    """Brute force's verdict on b, the status with the first witness, after
    checking every `decide` route and every oracle whose cost, read from n
    and |det|, is in bounds:

    - `decide` gives `det_gate`'s verdict where the gate decides, else
      brute force's, and it agrees with brute force on cubiquity;
    - brute force, at its default cap, gives the status and witness of
      `first_missed_cube_reference` and `coset_cover_reference` where
      n |det| <= 2^17 (each builds a set of up to |det| cosets, one
      coordinate at a time), and of `bruteforce_vertex_scan` where
      2^n |det| <= 2^16 (that many membership solves);
    - at |det| = 2^n and n <= 7, `_hajos_matches_oracles` (its permutation
      scan builds n! Hermite forms); below 2^n, `_assert_checkable_triangle`
      wherever the basis keeps a 1-2 triangle.

    A new `decide` route or oracle joins here, so every input below runs
    it."""
    n, d = b.n, abs(b.det)
    verdict, gate = decide(b), det_gate(b)
    oracle = is_cubiquitous_bruteforce(b)
    assert verdict == (oracle if gate.status is Status.INCONCLUSIVE
                       else gate), b
    assert (verdict.status is Status.CUBIQUITOUS) == \
        (oracle.status is Status.CUBIQUITOUS), b
    if n * d <= 2 ** 17:
        assert first_missed_cube_reference(b) == oracle.witness, b
        assert coset_cover_reference(b)[:2] == oracle[:2], b
    if d << n <= 2 ** 16:
        assert bruteforce_vertex_scan(b)[:2] == oracle[:2], b
    if d == 2 ** n and n <= 7:
        _hajos_matches_oracles(b)
    elif d < 2 ** n and b._triangle is not None:
        _assert_checkable_triangle(b)
    return oracle


def test_bruteforce_matches_vertex_scan_exhaustive():
    checked = 0
    for n in (1, 2, 3):
        for rows in hnf_rows(n, range(1, 2 ** n + 9)):
            _verdict_agrees(BasisMatrix(rows))
            checked += 1
    assert checked > 3000


def _random_differential_bases():
    rng = random.Random(47)
    for _ in range(320):
        n = rng.randint(4, 7)
        # power-of-two indices make cubiquitous lattices common
        d = rng.choice((rng.randint(1, 2 ** n + 8), 2 ** rng.randint(0, n)))
        yield BasisMatrix(mix(random_hnf(rng, n, d), rng, 3 * n))


def test_decide_matches_gate_and_bruteforce_random():
    routes = set()
    hits = set()
    backtracked = False
    for b in itertools.chain(_random_differential_bases(),
                             _random_hajos_bases()):
        gate = det_gate(b).status
        routes.add((gate, _verdict_agrees(b).status))
        if abs(b.det) == 2 ** b.n:
            hits.add((b.n, gate is Status.CUBIQUITOUS))
        if gate is Status.NOT_CUBIQUITOUS:
            # the dead-set count that _hajos_matches_oracles reads is live:
            # the DFS does backtrack where no Hajos basis exists
            backtracked |= hajos_prefix_dfs(b)[1] > 0
    # each gate outcome, with the truth brute force gives where it can vary
    assert routes == {
        (Status.OBSTRUCTED, Status.NOT_CUBIQUITOUS),
        (Status.CUBIQUITOUS, Status.CUBIQUITOUS),
        (Status.NOT_CUBIQUITOUS, Status.NOT_CUBIQUITOUS),
        (Status.INCONCLUSIVE, Status.CUBIQUITOUS),
        (Status.INCONCLUSIVE, Status.NOT_CUBIQUITOUS),
    }
    # at 2^n, with and without a Hajos basis at each n = 4-7
    assert hits == {(n, hit) for n in (4, 5, 6, 7) for hit in (False, True)}
    assert backtracked


def test_decide_inconclusive_past_cap():
    # Z + 3Z: brute force costs n * |det| = 6 steps
    assert decide(BasisMatrix([[1, 0], [0, 3]]), cap=5) == \
        CubiquityVerdict(Status.INCONCLUSIVE)


def _block_sum_below(n, bound, pool, rng):
    """Block names from ``pool`` filling n coordinates: random blocks
    while their index stays at most ``bound``, then units, shuffled."""
    names, used, index = [], 0, 1
    for _ in range(12):
        name = rng.choice(pool)
        block = BLOCKS[name]
        d = abs(BasisMatrix(block).det)
        if used + len(block) <= n and index * d <= bound:
            names.append(name)
            used += len(block)
            index *= d
    names += ["Unit"] * (n - used)
    rng.shuffle(names)
    return names, index


def test_decide_matches_classification_at_large_n(monkeypatch):
    # the cap counts n * |det|, so at the default cap brute force decides
    # mixed orthogonal block sums at n = 20-128 with |det| <= 2^16
    calls = count_calls(monkeypatch, "cubiquity.obstructions",
                        "is_cubiquitous_bruteforce")
    rng = random.Random(41)
    seen = collections.Counter()
    for n in (20, 24, 32, 48, 64, 128):
        for pool in (CUBIQUITOUS_BLOCKS, tuple(BLOCKS)) * 2:
            names, index = _block_sum_below(n, 2 ** 16, pool, rng)
            rows = signed_permutation(block_sum(names), rng)
            expected = classify_orthogonal(Subset(zip(*rows))).status
            b = BasisMatrix(mix(rows, rng, 3 * n))
            assert abs(b.det) == index and n * index <= 2 ** 24
            assert decide(b).status is expected, names
            seen[expected, index & index - 1 == 0] += 1
    # the 1-2 triangle certifies the cubiquitous ones, all of index 2^k,
    # and brute force decides the others
    assert seen.keys() == {(Status.CUBIQUITOUS, True),
                           (Status.NOT_CUBIQUITOUS, False)}
    assert len(calls) == seen[Status.NOT_CUBIQUITOUS, False] == 12


@pytest.mark.parametrize("n", [3, 20])
def test_decide_hajos_route_ignores_cap(n):
    # only brute force is metered; 2^n at n = 20 is past the default cap
    b = BasisMatrix(lower([2] * n))
    assert decide(b, cap=1) == CubiquityVerdict(
        Status.CUBIQUITOUS, hajos=HajosBasis(b, tuple(range(n))))


def test_decide_matches_bruteforce_below_2n_random():
    # below 2^n decide is the 1-2 certificate, then brute force; the
    # certificate is tried on every input here, power of two or not
    rng = random.Random(83)
    seen = collections.Counter()
    while sum(seen.values()) < 5000:
        n = rng.randint(1, 7)
        zero = rng.choice((0.5, 0.6, 0.7, 0.8))  # keeps |det| small
        rows = [[0 if rng.random() < zero else rng.randint(-3, 3)
                 for _ in range(n)] for _ in range(n)]
        try:
            b = BasisMatrix(rows)
        except SingularMatrix:
            continue
        d = abs(b.det)
        if d >= 2 ** n:
            continue
        oracle = _verdict_agrees(b)
        certified = fresh_triangle(b) is not None
        if certified:
            assert oracle.status is Status.CUBIQUITOUS, b
            assert d & d - 1 == 0, b
        seen[oracle.status, d & d - 1 == 0, certified] += 1
    # the certificate decides most power-of-two indices, and brute force
    # still runs on cubiquitous and non-cubiquitous ones
    assert seen[Status.CUBIQUITOUS, True, True] > 1000
    assert seen[Status.CUBIQUITOUS, True, False] > 0
    assert seen[Status.NOT_CUBIQUITOUS, True, False] > 0


def test_certified_scan_inputs_run_no_bruteforce(monkeypatch):
    # the cubiquitous `scan` inputs below 2^n (seed 1): the certificate
    # decides 22 of the 30, and brute force the other 8
    cases = [c for c in bench_plan("scan", 1)
             if c.label in ("full7", "full8", "full9")]
    assert len(cases) == 30
    calls = count_calls(monkeypatch, "cubiquity.obstructions",
                        "is_cubiquitous_bruteforce")
    certified = collections.Counter()
    for case in cases:
        b = BasisMatrix(case.rows)
        before = len(calls)
        assert decide(b).status is Status.CUBIQUITOUS, case.rows
        if len(calls) == before:
            certified[case.label] += 1
    assert certified == {"full9": 14, "full8": 3, "full7": 5}
    assert len(calls) == 8


@pytest.mark.parametrize("rows, n", [
    ([[1, 0], [0, 2]], 2),
    ([[int(i == j) for j in range(20)] for i in range(20)], 20),
])
def test_decide_certificate_ignores_cap(rows, n):
    # only brute force is metered: the 1-2 triangle decides past any cap
    assert decide(BasisMatrix(rows), cap=1) == \
        CubiquityVerdict(Status.CUBIQUITOUS)


def test_decide_certificate_leaves_witnesses_to_bruteforce():
    # index 4 < 8: the greedy takes the two 1s and stops at the 4, so
    # brute force gives the first witness
    b = BasisMatrix([[4, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert fresh_triangle(b) is None
    assert decide(b) == is_cubiquitous_bruteforce(b) == CubiquityVerdict(
        Status.NOT_CUBIQUITOUS, witness=(1, 0, 0))


def _below_2n_bases():
    """The `scan` check inputs of seeds 1-3, then random bases at n <= 7
    with a power-of-two index below 2^n."""
    for seed in (1, 2, 3):
        for case in bench_plan("scan", seed):
            if case.command == "check":
                yield BasisMatrix(case.rows)
    rng = random.Random(26)
    for _ in range(300):
        n = rng.randint(2, 7)
        rows = signed_permutation(random_hnf(rng, n, 2 ** rng.randrange(n)),
                                  rng)
        yield BasisMatrix(mix(rows, rng, 3 * n))


def _assert_checkable_triangle(b):
    """README's step-2 argument, re-checked with the oracles alone on the
    1-2 triangle the basis keeps: the form is triangular in its row order
    with 1s and 2s on the diagonal, it is the Hermite form of the input in
    that order (so it spans the same lattice), and doubling its pivot-1
    columns gives a sublattice whose Hermite form is a Hajos basis."""
    n = b.n
    cols, order = b._triangle
    form = tuple(tuple(col[i] for col in cols) for i in order)
    assert all(form[i][j] == 0 for i in range(n)
               for j in range(i + 1, n)), b
    assert {form[i][i] for i in range(n)} <= {1, 2}, b
    assert hnf_reference(b.permute_rows(order)).rows == form, b
    doubled = [[a * (3 - form[j][j]) for j, a in enumerate(row)]
               for row in form]
    h = hnf_reference(BasisMatrix(doubled)).rows
    assert all(h[i][i] == 2 and set(h[i][:i]) <= {0, 1}
               for i in range(n)), b


def test_triangle_below_2n_is_a_checkable_certificate():
    checked = 0
    for b in _below_2n_bases():
        _verdict_agrees(b)
        checked += abs(b.det) < 2 ** b.n and b._triangle is not None
    assert checked >= 250  # 69 of them from the scan plans


def test_triangle_has_no_swap_cap():
    # cubiquitous lattices of power-of-two index below 2^n at n = 3-10,
    # half 1-2 triangles and half filtered random Hermite forms, with
    # large multipliers mixed in; clearing a coordinate then often takes
    # more swaps than the determinant's greedy allows; the form resumes
    # where that greedy stopped, and is the one a run from the rows gives
    rng = random.Random(2029)
    total = certified = capped = resumed = 0
    for n in range(3, 11):
        kept = 0
        while kept < 40:
            k = rng.randrange(n)
            if rng.random() < 0.5:
                rows = signed_permutation(triangle(rng, n, k), rng)
            else:
                rows = signed_mix(random_hnf(rng, n, 2 ** k), rng)
            if is_cubiquitous_bruteforce(BasisMatrix(rows)).status is not \
                    Status.CUBIQUITOUS:
                continue
            kept += 1
            # multipliers up to 1000 in absolute value; one step in five
            # negates, so 4n steps make about 3n additions
            b = BasisMatrix(mix(rows, rng, 4 * n, 1000))
            total += 1
            capped += fresh_triangle(b, capped=True) is not None
            resumed += "_stopped" in vars(b)
            assert b._triangle == fresh_triangle(b), b
            if b._triangle is not None:
                _assert_checkable_triangle(b)
                assert decide(b, cap=1) == CubiquityVerdict(
                    Status.CUBIQUITOUS), b
                certified += 1
    # the swap cap alone would leave most of them to brute force
    assert (total, certified, capped) == (320, 294, 67)
    # below 2^n the determinant's greedy settles no form, so each resumed
    assert resumed == total


def test_bruteforce_matches_vertex_scan_catalog():
    for block in catalog_blocks():
        assert _verdict_agrees(block).status is Status.NOT_CUBIQUITOUS


def test_bruteforce_cap_boundary():
    # n * |det| = 2 * 3 steps
    b = BasisMatrix([[1, 0], [0, 3]])
    assert is_cubiquitous_bruteforce(b, cap=6).witness == (0, 1)
    with pytest.raises(ResourceLimit, match=r"n \* \|det\| = 2 \* 3 = 6 "):
        is_cubiquitous_bruteforce(b, cap=5)


def _box_position(basis, x):
    """Index of x in the lexicographic order of the HNF box."""
    diag = [basis.hnf.rows[k][k] for k in range(basis.n)]
    pos = 0
    for a, d in zip(x, diag):
        pos = pos * d + a
    return pos


def _past_vertex_scan_bases():
    """Bases at n = 11-16, where the vertex scan is too slow."""
    rng = random.Random(911)
    for n in range(11, 17):
        # signed-permuted 1-2 triangles, cubiquitous; with one coordinate
        # tripled, of index 3 * 2^twos and often with a witness deep in the
        # box
        for scale in (1, 3, 3, 3, 3, 3):
            rows = signed_permutation(triangle(rng, n, rng.randint(8, 11)),
                                      rng)
            rows[0] = [scale * a for a in rows[0]]
            yield BasisMatrix(rows)
        # non-cyclic quotients, with d_k = 1 rows beside them
        for diag in ((2, 16, 96), (4, 4, 12), (2, 2, 2, 6, 30)):
            yield BasisMatrix(signed_mix(lower(diag + (1,) * (n - len(diag))),
                                         rng))
        for _ in range(4):
            d = rng.randint(2, 4 * n * n)
            yield BasisMatrix(mix(random_hnf(rng, n, d), rng, 2 * n))


def test_bruteforce_matches_coset_cover_reference_n11_16():
    late = ones = non_cyclic = 0
    statuses = set()
    for b in _past_vertex_scan_bases():
        fast = _verdict_agrees(b)
        statuses.add(fast.status)
        diag = [b.hnf.rows[k][k] for k in range(b.n)]
        ones += 1 in diag
        non_cyclic += _non_cyclic(b)
        if fast.witness is not None:
            late += _box_position(b, fast.witness) >= 500
    assert statuses == {Status.CUBIQUITOUS, Status.NOT_CUBIQUITOUS}
    # witnesses at box position 500 or later, HNF rows with d_k = 1, and
    # quotients that are no cyclic group
    assert late >= 10 and ones >= 60 and non_cyclic >= 40


def _cyclic_n19(top=2 ** 15):
    # L = {x : sum c_k x_k = 0 mod N} with c = -1, -2, ..., -2^14, -top,
    # 0, 0, 1 and top <= 2^15; the cubes reach the cosets -(2^15 + top) + 1
    # .. 1, so the first cube that misses L sits at 2^15 + top on the last
    # coordinate, of index N = 3 * 2^16
    c = [-(2 ** k) for k in range(15)] + [-top, 0, 0, 1]
    return BasisMatrix(mix(cyclic(c, 3 * 2 ** 16), random.Random(19), 38))


def test_bruteforce_late_witness_cyclic_n19():
    n, N = 19, 3 * 2 ** 16
    for top in (2 ** 15, 12345):
        b = _cyclic_n19(top)
        start = time.perf_counter()
        v = is_cubiquitous_bruteforce(b)
        # x_19 = 2^16 takes 16 halving levels, not 65,537 bit tests
        assert time.perf_counter() - start < 0.1
        assert abs(b.det) == N
        assert v == CubiquityVerdict(
            Status.NOT_CUBIQUITOUS, witness=(0,) * (n - 1) + (2 ** 15 + top,))
        assert first_missed_cube_reference(b) == v.witness


NEAR_CAP = [(3,) + (2,) * 16 + (1, 1), (2 ** 23 - 5,)]


def _near_cap(diag):
    return BasisMatrix(signed_mix(lower(diag), random.Random(len(diag))))


@pytest.mark.parametrize("diag", NEAR_CAP)
def test_bruteforce_near_cap_time(diag):
    # n = 19 at index 3 * 2^16 and n = 1 at index 2^23 - 5, both under
    # the default cap: the bitset is |det| bits wide, and the witness
    # search doubles up to d_k
    n = len(diag)
    b = _near_cap(diag)
    start = time.perf_counter()
    v = is_cubiquitous_bruteforce(b)
    assert time.perf_counter() - start < 1
    # In both lattices 3 divides every lattice vector at one coordinate p
    # (2^23 - 5 = 3 * 2796201), and x_p = 1 is the first value whose
    # {x_p, x_p + 1} misses the lattice there, so the first witness is e_p
    p, = [i for i, row in enumerate(b.rows) if all(a % 3 == 0 for a in row)]
    assert v.witness == tuple(int(k == p) for k in range(n))


def test_bruteforce_builds_no_hermite_form(monkeypatch):
    bases = list(_past_vertex_scan_bases())
    bases += [_near_cap(diag) for diag in NEAR_CAP] + [_cyclic_n19()]
    calls = count_calls(monkeypatch, "cubiquity.lattice", "_triangulate")
    verdicts = [is_cubiquitous_bruteforce(b) for b in bases]
    assert calls == []
    assert {v.status for v in verdicts} == \
        {Status.CUBIQUITOUS, Status.NOT_CUBIQUITOUS}


def _non_cyclic(basis):
    """Whether Z^n/L is no cyclic group: its exponent, the lcm of any
    cyclic factors it splits into, is below its order."""
    moduli = _diagonalize(basis)[0]
    return math.lcm(*moduli) < math.prod(moduli)


def _random_non_cyclic_bases():
    rng = random.Random(53)
    found = 0
    while found < 300:
        n = rng.randint(2, 8)
        if rng.random() < 0.5:
            # d_1 | d_2 with d_1 > 1 cannot be cyclic
            d = rng.randint(2, 4)
            diag = [d, d * rng.randint(1, 4)] + [rng.choice((1, 1, 2, 3))
                                                  for _ in range(n - 2)]
            rng.shuffle(diag)
            b = BasisMatrix(signed_mix(lower(diag), rng))
        else:
            d = rng.choice((rng.randint(4, 4 * n * n), 2 ** rng.randint(2, n)))
            b = BasisMatrix(mix(random_hnf(rng, n, d), rng, 3 * n))
        if _non_cyclic(b):
            found += 1
            yield b


def test_first_missed_cube_matches_references_non_cyclic():
    statuses = {_verdict_agrees(b).status for b in _random_non_cyclic_bases()}
    assert statuses == {Status.CUBIQUITOUS, Status.NOT_CUBIQUITOUS}


def test_hajos_examples():
    found = hajos_basis(BasisMatrix([[2]]))
    assert found is not None
    assert found.matrix.rows == ((2,),)

    # det of each hyperbolic block is 2, so the 4x4 sum has det 4 != 2^4
    # and no Hajos basis can exist, although the lattice is cubiquitous.
    hyper = BasisMatrix([[1, -1], [1, 1]])
    two_hyper = direct_sum(hyper, hyper)
    assert abs(two_hyper.det) == 4
    assert hajos_basis(two_hyper) is None
    assert is_cubiquitous_bruteforce(two_hyper).status is Status.CUBIQUITOUS

    # Z + 4Z has det 2^2 but misses the cube with second coordinate {1, 2}
    assert hajos_basis(BasisMatrix([[1, 0], [0, 4]])) is None
    assert is_cubiquitous_bruteforce(
        BasisMatrix([[1, 0], [0, 4]])).status is Status.NOT_CUBIQUITOUS

    found = hajos_basis(BasisMatrix([[2, 0, 0, 0], [0, 2, 0, 0],
                                     [0, 0, 2, 0], [0, 0, 0, 2]]))
    assert found is not None
    assert found.row_order == (0, 1, 2, 3)


def _hajos_key(found):
    return None if found is None else (found.matrix.rows, found.row_order)


def _hajos_matches_oracles(b):
    """hajos_basis against both reference searches."""
    found = hajos_basis(b)
    assert _hajos_key(found) == _hajos_key(hajos_permutation_scan(b)), b
    order, dead = hajos_prefix_dfs(b)
    assert order == (found.row_order if found else None), b
    if found is not None:
        # the certificate is the Hermite form under the order found
        assert found.matrix == hnf_reference(b.permute_rows(order)), b
        # 2s on its diagonal and 0s and 1s below it, so its det is 2^n
        h = found.matrix.rows
        assert all(h[i][i] == 2 and set(h[i][:i]) <= {0, 1}
                   for i in range(b.n)), b
        assert found.matrix.det == BasisMatrix(h).det == 2 ** b.n, b
        # the greedy path never backtracks when a basis exists
        assert dead == 0, b


def test_hajos_matches_permutation_scan_exhaustive_n3():
    for n in (1, 2, 3):
        for rows in hnf_rows(n, (2 ** n,)):
            _hajos_matches_oracles(BasisMatrix(rows))


def _random_hajos_bases():
    # n = 7 cases cost the reference up to 5040 HNFs each, so they are few
    rng = random.Random(20241)
    for n, count in ((4, 170), (5, 110), (6, 26), (7, 4)):
        for _ in range(count):
            if rng.random() < 0.5:
                rows = chain(rng, n)
            else:
                rows = random_hnf(rng, n, 2 ** n)
            yield BasisMatrix(signed_mix(rows, rng))


def test_hajos_bit_pick_matches_gcd_pick():
    # hajos_basis picks by the low bits of an OR of entries, which equals
    # the gcd test only because |det| = 2^n; compare on mixed bases, with
    # entries of every sign, that complete and that get stuck
    rng = random.Random(2007)
    outcomes = set()
    for n in range(2, 10):
        for _ in range(120):
            rows = chain(rng, n) if rng.random() < 0.5 else \
                random_hnf(rng, n, 2 ** n)
            b = BasisMatrix(signed_mix(rows, rng))
            found = hajos_basis(b)
            assert _hajos_key(found) == _hajos_key(hajos_gcd_greedy(b)), b
            outcomes.add((n, found is not None))
    # and at every larger size the basis runs the greedy for, below
    # _PACKED_FROM rows, where its det comes from the same elimination,
    # and past it, where only the `_triangle` property builds the form
    for n in range(10, 25):
        for _ in range(100 if n < _PACKED_FROM else 12):
            rows = chain(rng, n) if rng.random() < 0.5 else \
                random_hnf(rng, n, 2 ** n)
            b = BasisMatrix(signed_mix(rows, rng))
            found = hajos_basis(b)
            assert _hajos_key(found) == _hajos_key(hajos_gcd_greedy(b)), b
            outcomes.add((n, found is not None))
    assert outcomes == {(n, hit) for n in range(2, 25)
                        for hit in (False, True)}


def test_hajos_certificate_when_the_euclid_gives_up(monkeypatch):
    # where clearing a coordinate takes more than _EUCLID_SWAPS swaps, the
    # det's greedy stops and hands the block to Bareiss; at |det| = 2^n
    # the certificate comes from a second greedy without the cap, still
    # the lexicographically first.  2 I_n with its first two columns
    # recombined by [[89, 55], [144, 89]], of det 1, gives up by
    # construction: consecutive Fibonacci numbers are the Euclid's slowest
    # input.  Chains with large multiples mixed in give up or not
    sizes = (3, 6, 10, _PACKED_FROM - 1)
    pinned = [lower([2] * n) for n in sizes]
    for rows in pinned:
        rows[0][:2] = 2 * 89, 2 * 55
        rows[1][:2] = 2 * 144, 2 * 89
    rng = random.Random(606)
    drawn = [mix(chain(rng, n), rng, 4 * n, 10 ** 6)
             for n in sizes for _ in range(8)]
    calls = count_calls(monkeypatch, "cubiquity.lattice", "_triangulate")
    made = []
    for rows in pinned + drawn:
        calls.clear()
        b = BasisMatrix(rows)
        found = hajos_basis(b)
        made.append(len(calls))  # the oracle below builds bases of its own
        assert abs(b.det) == 2 ** b.n
        assert found is not None
        assert _hajos_key(found) == _hajos_key(hajos_gcd_greedy(b)), b
    assert made[:len(sizes)] == [2] * len(sizes)
    assert set(made) == {1, 2}


def test_hajos_identity_order_first():
    rng = random.Random(5)
    b = BasisMatrix(mix(lower([2] * 6, lambda i, j: 1), rng, 12))
    found = hajos_basis(b)
    assert found.row_order == tuple(range(6))
    assert _hajos_key(found) == _hajos_key(hajos_permutation_scan(b))


@pytest.mark.parametrize("n", [8, 64])
def test_hajos_absent_mixed_diagonal(n):
    # index 2^n, but the coordinates of index 4 and 1 rule out every order
    diag = (4, 1) + (2,) * (n - 2)
    b = BasisMatrix(signed_mix(lower(diag), random.Random(n)))
    assert abs(b.det) == 2 ** n
    assert hajos_basis(b) is None


def test_hajos_present_n64_mixed_chain():
    n = 64
    b = BasisMatrix(signed_mix(lower([2] * n, lambda i, j: int(j == i - 1)),
                               random.Random(n)))
    found = hajos_basis(b)
    h = found.matrix
    for i in range(n):
        assert h.rows[i][i] == 2
        assert all(h.rows[i][j] in (0, 1) for j in range(i))
        assert all(h.rows[i][j] == 0 for j in range(i + 1, n))
    assert abs(h.det) == 2 ** n
    permuted = b.permute_rows(found.row_order)
    assert all(contains(permuted, col) for col in h.columns)


def test_det_gate_examples():
    v = det_gate(BasisMatrix([[3]]))
    assert v.status is Status.OBSTRUCTED
    assert v.inequality == (3, 2)

    v = det_gate(BasisMatrix([[2]]))
    assert v.status is Status.CUBIQUITOUS
    assert v.hajos is not None

    v = det_gate(BasisMatrix([[1]]))
    assert v.status is Status.INCONCLUSIVE

    # det = 2^n without a Hajos basis
    v = det_gate(BasisMatrix([[1, 0], [0, 4]]))
    assert v.status is Status.NOT_CUBIQUITOUS
    assert v.witness is None


def test_verdict_json_shape():
    v = is_cubiquitous_bruteforce(BasisMatrix([[3]]))
    assert v.to_json_dict() == {
        "status": "NotCubiquitous",
        "witness": [1],
        "inequality": None,
        "hajos_basis": None,
    }
