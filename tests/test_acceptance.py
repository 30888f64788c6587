"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest -s tests/test_acceptance.py` to see the lines as they
print.  Every comparison is exact; there are no tolerances anywhere.
"""

import itertools
import random
import time

from cubiquity import (
    BasisMatrix,
    SingularMatrix,
    Status,
    Subset,
    catalog_blocks,
    check_identity,
    classify_orthogonal,
    contains,
    contract,
    det4_formula,
    det4_zero_solutions,
    direct_sum,
    hajos_basis,
    is_cubiquitous_bruteforce,
    is_non_acute,
    torus_sum_bounds_qball,
    wu_element,
)
from families import (
    BLOCKS,
    CUBIQUITOUS_BLOCKS,
    block_sum,
    dense,
    hnf_rows,
    random_hnf,
    signed_permutation,
)
from helpers import cofactor_det, dot


def _report(name, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"[{status}] {name}")
    assert not failures, (name, failures[:5], f"{len(failures)} failures")


def test_criterion_1_witness_cube_reproduction():
    started = time.time()
    failures = []
    base = (-2, 1, 1, 1, 1, 1, 1, 1)
    for label, block in zip("AB", catalog_blocks()):
        verdict = is_cubiquitous_bruteforce(block)
        if verdict.status is not Status.NOT_CUBIQUITOUS:
            failures.append((label, verdict.status))
        hits = sum(
            contains(block, tuple(b + e for b, e in zip(base, eps)))
            for eps in itertools.product((0, 1), repeat=8))
        if hits != 0:
            failures.append((label, "cube hits", hits))
    elapsed = time.time() - started
    if elapsed >= 5.0:
        failures.append(("runtime", elapsed))
    _report("criterion 1: catalog blocks miss the cube at (-2,1,...,1)",
            failures)


def test_criterion_2_det4_formula_and_zero_solutions():
    started = time.time()
    failures = []
    for a in range(-5, 11):
        for b in range(-5, 11):
            for c in range(-5, 11):
                for d in range(-5, 11):
                    m = [[a, -1, -1, -1], [-1, b, -1, -1],
                         [-1, -1, c, -1], [-1, -1, -1, d]]
                    if det4_formula(a, b, c, d) != cofactor_det(m):
                        failures.append((a, b, c, d))

    solutions = det4_zero_solutions(50)
    if any(sol[0] > 3 for sol in solutions):
        failures.append("a solution has minimum above 3")
    if [s for s in solutions if s[0] == 3] != [(3, 3, 3, 3)]:
        failures.append("minimum 3 must force (3,3,3,3)")
    a1 = [s for s in solutions if s[0] == 1]
    if any(s[1] > 5 for s in a1):
        failures.append("a = 1 must force b <= 5")
    for wanted in ((1, 3, 7, 7), (1, 4, 4, 9), (1, 5, 5, 5)):
        if wanted not in solutions:
            failures.append(("missing", wanted))
    for sol in solutions:
        rest = list(sol)
        if rest.count(7) >= 2:
            for _ in range(2):
                rest.remove(7)
            if sorted(rest) != [1, 3]:
                failures.append(("two sevens", sol))
        rest = list(sol)
        if rest.count(5) >= 2:
            for _ in range(2):
                rest.remove(5)
            if sorted(rest) not in ([1, 5], [2, 2]):
                failures.append(("two fives", sol))
    elapsed = time.time() - started
    if elapsed >= 10.0:
        failures.append(("runtime", elapsed))
    _report("criterion 2: determinant formula exact on [-5,10]^4 and "
            "zero-solution structure up to 50", failures)


def test_criterion_3_hajos_cross_check():
    failures = []
    checked = 0
    for n in (1, 2, 3):
        for basis in map(BasisMatrix, hnf_rows(n, [2 ** n])):
            present = hajos_basis(basis) is not None
            cubiquitous = is_cubiquitous_bruteforce(basis).status is \
                Status.CUBIQUITOUS
            if present != cubiquitous:
                failures.append(("exact", basis.rows))
            checked += 1
        for basis in map(BasisMatrix,
                         hnf_rows(n, range(2 ** n + 1, 2 ** n + 9))):
            if is_cubiquitous_bruteforce(basis).status is not \
                    Status.NOT_CUBIQUITOUS:
                failures.append(("over", basis.rows))
            checked += 1
    rng = random.Random(1234)
    for _ in range(200):
        basis = BasisMatrix(random_hnf(rng, 4, 16))
        present = hajos_basis(basis) is not None
        cubiquitous = is_cubiquitous_bruteforce(basis).status is \
            Status.CUBIQUITOUS
        if present != cubiquitous:
            failures.append(("random exact", basis.rows))
        checked += 1
    for _ in range(50):
        basis = BasisMatrix(random_hnf(rng, 4, rng.randrange(17, 41)))
        if is_cubiquitous_bruteforce(basis).status is not \
                Status.NOT_CUBIQUITOUS:
            failures.append(("random over", basis.rows))
        checked += 1
    assert checked >= 2854 + 250
    _report(f"criterion 3: Hajos basis iff brute-force cubiquity "
            f"({checked} lattices)", failures)


def test_criterion_4_orthogonal_classification_equivalence():
    failures = []
    multisets = [
        combo
        for r in range(1, 5)
        for combo in itertools.combinations_with_replacement(BLOCKS, r)
        if sum(len(BLOCKS[nm]) for nm in combo) <= 4
    ]
    rng = random.Random(99)
    checks = 0
    while checks < 1000:
        combo = multisets[checks % len(multisets)]
        vectors = list(zip(*signed_permutation(block_sum(combo), rng)))
        subset = Subset(vectors)
        classified = classify_orthogonal(subset).status
        oracle = is_cubiquitous_bruteforce(subset.to_basis()).status
        agree = (classified is Status.CUBIQUITOUS) == \
            (oracle is Status.CUBIQUITOUS)
        if not agree:
            failures.append((combo, vectors, classified, oracle))
        checks += 1
    _report(f"criterion 4: classification equals oracle on {checks} "
            f"signed permutations", failures)


def _nonacute_soundness(n, span=3):
    """Yield (obstructed, full_rank, sound) counts for dimension n."""
    vecs = [v for v in itertools.product(range(-span, span + 1), repeat=n)
            if any(v)]
    m = len(vecs)
    dots = [[dot(vecs[i], vecs[j]) for j in range(m)] for i in range(m)]
    norms = [dots[i][i] for i in range(m)]
    rhs_base = 4 * n

    obstructed = 0
    degenerate = 0
    unsound = []
    memo = {}

    def wu_fires(indices):
        total = [sum(vecs[i][j] for i in indices) for j in range(n)]
        lhs = sum(k * k for k in total)
        r_o = sum(k & 1 for k in total)
        return lhs > rhs_base - 3 * r_o

    def handle(indices):
        nonlocal obstructed, degenerate
        obstructed += 1
        try:
            basis = BasisMatrix.from_columns([vecs[i] for i in indices])
        except SingularMatrix:
            degenerate += 1
            return
        key = basis.hnf.rows
        status = memo.get(key)
        if status is None:
            status = is_cubiquitous_bruteforce(basis).status
            memo[key] = status
        if status is not Status.NOT_CUBIQUITOUS:
            unsound.append(tuple(vecs[i] for i in indices))

    if n == 1:
        for i in range(m):
            if wu_fires((i,)):
                handle((i,))
    elif n == 2:
        for i in range(m):
            for j in range(i + 1, m):
                if dots[i][j] > 0:
                    continue
                if norms[i] + dots[i][j] < 0 or norms[j] + dots[i][j] < 0:
                    continue
                if wu_fires((i, j)):
                    handle((i, j))
    else:
        masks = []
        for i in range(m):
            mask = 0
            for j in range(i + 1, m):
                if dots[i][j] <= 0:
                    mask |= 1 << j
            masks.append(mask)
        for i in range(m):
            rest = masks[i]
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                both = masks[i] & masks[j]
                dij = dots[i][j]
                while both:
                    low2 = both & -both
                    k = low2.bit_length() - 1
                    both ^= low2
                    if norms[i] + dij + dots[i][k] < 0:
                        continue
                    if norms[j] + dij + dots[j][k] < 0:
                        continue
                    if norms[k] + dots[i][k] + dots[j][k] < 0:
                        continue
                    if wu_fires((i, j, k)):
                        handle((i, j, k))
    return obstructed, degenerate, unsound


def test_criterion_5_wu_soundness_exhaustive():
    failures = []
    total_obstructed = 0
    for n in (1, 2, 3):
        obstructed, degenerate, unsound = _nonacute_soundness(n)
        total_obstructed += obstructed - degenerate
        failures.extend(unsound)
        # rank-deficient subsets span no full-rank lattice and are never
        # cubiquitous, so only full-rank instances feed the oracle
        assert degenerate <= obstructed
    assert total_obstructed > 150000
    _report(f"criterion 5: zero Wu false positives over {total_obstructed} "
            f"full-rank obstructed subsets, n <= 3", failures)


def _padded_expansions():
    """Valid contraction instances: non-acute source and target."""
    paddings = [()] + [BLOCKS[name] for name in CUBIQUITOUS_BLOCKS]
    rng = random.Random(77)
    for x in [v for v in range(-8, 9) if v != 0]:
        base = [(0, -1, 0, 1), (0, 0, x, -1), (1, 1, 0, 1), (-1, 1, 0, 0)]
        for pad in paddings:
            extra = len(pad[0]) if pad else 0
            vectors = [v + (0,) * extra for v in base]
            vectors += [(0, 0, 0, 0) + tuple(p) for p in pad]
            n = 4 + extra
            perm = list(range(n))
            rng.shuffle(perm)
            signs = [rng.choice((-1, 1)) for _ in range(n)]
            placed = []
            for v in vectors:
                w = [0] * n
                for j, val in enumerate(v):
                    w[perm[j]] = signs[perm[j]] * val
                placed.append(tuple(w))
            yield Subset(placed), perm[3], 0, 1, 2


def test_criterion_6_contraction_invariance():
    failures = []
    count = 0
    for subset, i, s, t, u in _padded_expansions():
        count += 1
        if not is_non_acute(subset):
            failures.append(("source not non-acute", subset.vectors))
            continue
        contracted = contract(subset, i, s, t, u)
        if not is_non_acute(contracted):
            failures.append(("target not non-acute", subset.vectors))
            continue
        from cubiquity import wu_obstruction
        before = wu_obstruction(subset)
        after = wu_obstruction(contracted)
        if before.status is not after.status:
            failures.append(("status changed", subset.vectors, i))
        wu_before = wu_element(subset).vector
        wu_after = wu_element(contracted).vector
        dropped = wu_before[:i] + wu_before[i + 1:]
        if dropped != wu_after or abs(wu_before[i]) != 1:
            failures.append(("Wu element mismatch", subset.vectors, i))
    assert count >= 50
    _report(f"criterion 6: obstruction preserved across {count} "
            f"contractions", failures)


def test_criterion_7_direct_sum_law():
    failures = []
    summands = [BasisMatrix([[d]]) for d in range(1, 10)]
    summands += map(BasisMatrix, hnf_rows(2, range(1, 10)))
    verdicts = {
        b: is_cubiquitous_bruteforce(b).status is Status.CUBIQUITOUS
        for b in summands
    }
    for b1 in summands:
        for b2 in summands:
            combined = is_cubiquitous_bruteforce(direct_sum(b1, b2)).status
            expected = verdicts[b1] and verdicts[b2]
            if (combined is Status.CUBIQUITOUS) != expected:
                failures.append((b1.rows, b2.rows))
    _report(f"criterion 7: direct-sum law over {len(summands) ** 2} pairs "
            f"with |det| <= 9", failures)


def test_criterion_8_counting_identity():
    failures = []
    rng = random.Random(2718)
    for _ in range(10000):
        subset = Subset(dense(rng, rng.randint(1, 6), -3, 3))
        if not check_identity(subset):
            failures.append(subset.vectors)
    _report("criterion 8: counting identity on 10000 random subsets",
            failures)


def _orthogonal_realizations(magnitudes, limit=25):
    n = len(magnitudes)
    candidates = {
        m: [v for v in itertools.product(range(-2, 3), repeat=n)
            if sum(x * x for x in v) == m]
        for m in set(magnitudes)
    }
    found = []

    def extend(chosen):
        if len(found) >= limit:
            return
        if len(chosen) == n:
            found.append(tuple(chosen))
            return
        for v in candidates[magnitudes[len(chosen)]]:
            if all(dot(v, u) == 0 for u in chosen):
                extend(chosen + [v])

    extend([])
    return found


def test_criterion_9_torus_rule_agreement():
    failures = []
    spot = [((-4, -4), True), ((-2, -4), False), ((-2, -2), True),
            ((-3,), False)]
    for params, expected in spot:
        if torus_sum_bounds_qball(params) is not expected:
            failures.append(("spot", params))

    realized = 0
    for n in (1, 2, 3):
        for mags in itertools.combinations_with_replacement(
                range(1, 7), n):
            rule = torus_sum_bounds_qball([-m for m in mags])
            for vectors in _orthogonal_realizations(list(mags)):
                realized += 1
                status = classify_orthogonal(Subset(vectors)).status
                if (status is Status.CUBIQUITOUS) != rule:
                    failures.append((mags, vectors, rule, status))
    assert realized > 0
    _report(f"criterion 9: torus rule matches classification on "
            f"{realized} diagonal-Gram realizations", failures)
