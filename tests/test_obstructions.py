import itertools
import random

import pytest

from cubiquity import (
    BasisMatrix,
    CubiquityVerdict,
    NotNonAcute,
    NotOrthogonal,
    ResourceLimit,
    Status,
    Subset,
    catalog_blocks,
    contains,
    decide,
    det_gate,
    direct_sum,
    hajos_basis,
    is_cubiquitous_bruteforce,
    is_orthogonal,
    length_three_family,
    wu_element,
    wu_obstruction,
    wu_obstruction_orthogonal,
)
from helpers import (
    BLOCK_LIBRARY,
    assemble_blocks,
    bruteforce_vertex_scan,
    hajos_permutation_scan,
    hnf_matrices,
    random_hnf,
    signed_permutation,
    unimodular_mix,
)


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
        n = rng.randint(1, 4)
        s = Subset([tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(n)])
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
    names = list(BLOCK_LIBRARY)
    while checked < 200:
        combo = [rng.choice(names) for _ in range(rng.randint(1, 3))]
        vectors = signed_permutation(assemble_blocks(combo), rng)
        s = Subset(vectors)
        assert is_orthogonal(s)
        assert wu_obstruction(s).status is \
            wu_obstruction_orthogonal(s).status
        checked += 1


def test_bruteforce_identity_lattices():
    for n in (1, 2, 4, 8):
        b = BasisMatrix([[1 if i == j else 0 for j in range(n)]
                         for i in range(n)])
        assert is_cubiquitous_bruteforce(b).status is Status.CUBIQUITOUS


def test_bruteforce_3z_witness():
    v = is_cubiquitous_bruteforce(BasisMatrix([[3]]))
    assert v.status is Status.NOT_CUBIQUITOUS
    assert v.witness == (1,)


def test_bruteforce_catalog_blocks():
    for block in catalog_blocks():
        v = is_cubiquitous_bruteforce(block)
        assert v.status is Status.NOT_CUBIQUITOUS


def test_bruteforce_witness_recheck():
    rng = random.Random(41)
    found = 0
    while found < 25:
        n = rng.randint(1, 3)
        rows = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            b = BasisMatrix(rows)
        except Exception:
            continue
        v = is_cubiquitous_bruteforce(b)
        if v.status is not Status.NOT_CUBIQUITOUS:
            continue
        found += 1
        for eps in itertools.product((0, 1), repeat=n):
            point = tuple(a + e for a, e in zip(v.witness, eps))
            assert contains(b, point) is False


def test_bruteforce_signed_permutation_invariance():
    rng = random.Random(43)
    for _ in range(40):
        n = rng.randint(1, 3)
        rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        try:
            b = BasisMatrix(rows)
        except Exception:
            continue
        base = is_cubiquitous_bruteforce(b).status
        perm = list(range(n))
        rng.shuffle(perm)
        signs = [rng.choice((-1, 1)) for _ in range(n)]
        permuted = BasisMatrix(
            [[signs[i] * rows[perm[i]][j] for j in range(n)]
             for i in range(n)])
        assert is_cubiquitous_bruteforce(permuted).status is base


def test_bruteforce_resource_limit():
    with pytest.raises(ResourceLimit):
        is_cubiquitous_bruteforce(BasisMatrix([[9, 0], [0, 9]]), cap=100)


def _same_as_vertex_scan(basis):
    fast = is_cubiquitous_bruteforce(basis)
    slow = bruteforce_vertex_scan(basis)
    assert (fast.status, fast.witness) == (slow.status, slow.witness), basis
    return fast.status


def test_bruteforce_matches_vertex_scan_exhaustive():
    checked = 0
    for n in (1, 2, 3):
        for b in hnf_matrices(n, range(1, 2 ** n + 9)):
            _same_as_vertex_scan(b)
            checked += 1
    assert checked > 3000


def _random_differential_bases():
    rng = random.Random(47)
    for _ in range(320):
        n = rng.randint(4, 7)
        # power-of-two indices make cubiquitous lattices common
        d = rng.choice((rng.randint(1, 2 ** n + 8), 2 ** rng.randint(0, n)))
        yield unimodular_mix(random_hnf(n, d, rng), rng, 3 * n)


def test_bruteforce_matches_vertex_scan_random():
    seen = {_same_as_vertex_scan(b) for b in _random_differential_bases()}
    assert seen == {Status.CUBIQUITOUS, Status.NOT_CUBIQUITOUS}


def test_decide_matches_gate_and_bruteforce_random():
    routes = set()
    for b in itertools.chain(_random_differential_bases(),
                             _random_hajos_bases()):
        verdict = decide(b)
        gate = det_gate(b)
        oracle = is_cubiquitous_bruteforce(b)
        if gate.status is Status.INCONCLUSIVE:
            assert verdict == oracle, b
        else:
            assert verdict == gate, b
        assert (verdict.status is Status.CUBIQUITOUS) == \
            (oracle.status is Status.CUBIQUITOUS), b
        routes.add((gate.status, verdict.status))
    assert routes == {
        (Status.OBSTRUCTED, Status.OBSTRUCTED),
        (Status.CUBIQUITOUS, Status.CUBIQUITOUS),
        (Status.NOT_CUBIQUITOUS, Status.NOT_CUBIQUITOUS),
        (Status.INCONCLUSIVE, Status.CUBIQUITOUS),
        (Status.INCONCLUSIVE, Status.NOT_CUBIQUITOUS),
    }


def test_decide_inconclusive_past_cap():
    # Z + 3Z: brute force costs 14 steps; diag(2, 2, 2): Hajos costs 24
    assert decide(BasisMatrix([[1, 0], [0, 3]]), cap=13) == \
        CubiquityVerdict(Status.INCONCLUSIVE)
    b = BasisMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert decide(b, cap=23) == CubiquityVerdict(Status.INCONCLUSIVE)
    assert decide(b, cap=24).hajos.matrix == b


def test_bruteforce_matches_vertex_scan_catalog():
    for block in catalog_blocks():
        assert _same_as_vertex_scan(block) is Status.NOT_CUBIQUITOUS


def test_bruteforce_cap_boundary():
    # n * (2^n + |det|) = 2 * (4 + 3) steps
    b = BasisMatrix([[1, 0], [0, 3]])
    assert is_cubiquitous_bruteforce(b, cap=14).witness == (0, 1)
    with pytest.raises(ResourceLimit):
        is_cubiquitous_bruteforce(b, cap=13)


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


def test_hajos_shape():
    rng = random.Random(47)
    hits = 0
    while hits < 10:
        b = hnf_matrices(3, (8,))[rng.randrange(155)]
        found = hajos_basis(b)
        if found is None:
            continue
        hits += 1
        h = found.matrix
        for i in range(3):
            assert h.rows[i][i] == 2
            for j in range(i):
                assert h.rows[i][j] in (0, 1)


def test_hajos_cap_boundary():
    # n * 2^n = 3 * 8 steps: at most 2^3 prefix sets of 3 gcd checks each
    b = BasisMatrix([[2, 0, 0], [0, 2, 0], [0, 0, 2]])
    assert hajos_basis(b, cap=24).row_order == (0, 1, 2)
    with pytest.raises(ResourceLimit, match="24 steps"):
        hajos_basis(b, cap=23)
    with pytest.raises(ResourceLimit):
        det_gate(b, cap=23)


def test_hajos_iff_bruteforce_exhaustive_n2():
    for b in hnf_matrices(2, (4,)):
        present = hajos_basis(b) is not None
        cubiquitous = is_cubiquitous_bruteforce(b).status is \
            Status.CUBIQUITOUS
        assert present == cubiquitous, b


def _hajos_key(found):
    return None if found is None else (found.matrix.rows, found.row_order)


def _lower_two_diagonal(n, rng):
    """Random lower-triangular basis with 2s on the diagonal, 0/1 below."""
    return BasisMatrix([[2 if j == i else rng.randrange(2) if j < i else 0
                         for j in range(n)] for i in range(n)])


def test_hajos_matches_permutation_scan_exhaustive_n3():
    for n in (1, 2, 3):
        for b in hnf_matrices(n, (2 ** n,)):
            assert _hajos_key(hajos_basis(b)) == \
                _hajos_key(hajos_permutation_scan(b)), b


def _random_hajos_bases():
    # n = 7 cases cost the reference up to 5040 HNFs each, so they are few
    rng = random.Random(20241)
    for n, count in ((4, 170), (5, 110), (6, 26), (7, 4)):
        for _ in range(count):
            if rng.random() < 0.5:
                b = _lower_two_diagonal(n, rng)
            else:
                b = random_hnf(n, 2 ** n, rng)
            cols = signed_permutation(list(b.columns), rng)
            yield unimodular_mix(BasisMatrix.from_columns(cols), rng, 2 * n)


def test_hajos_matches_permutation_scan_random():
    outcomes = set()
    for b in _random_hajos_bases():
        found = hajos_basis(b)
        assert _hajos_key(found) == _hajos_key(hajos_permutation_scan(b)), b
        outcomes.add((b.n, found is not None))
    assert outcomes == {(n, hit) for n in (4, 5, 6, 7)
                        for hit in (False, True)}


def test_hajos_identity_order_first():
    rng = random.Random(5)
    b = unimodular_mix(BasisMatrix([[2 if j == i else int(j < i)
                                     for j in range(6)] for i in range(6)]),
                       rng, 12)
    found = hajos_basis(b)
    assert found.row_order == tuple(range(6))
    assert _hajos_key(found) == _hajos_key(hajos_permutation_scan(b))


def test_hajos_absent_n8_mixed_diagonal():
    # index 2^8, but the coordinates of index 4 and 1 rule out every order
    rng = random.Random(8)
    diag = (4, 1, 2, 2, 2, 2, 2, 2)
    b = BasisMatrix([[diag[i] if j == i else 0 for j in range(8)]
                     for i in range(8)])
    cols = signed_permutation(list(b.columns), rng)
    b = unimodular_mix(BasisMatrix.from_columns(cols), rng, 16)
    assert abs(b.det) == 2 ** 8
    assert hajos_basis(b) is None


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


def test_direct_sum_law_small():
    parts = [BasisMatrix([[d]]) for d in (1, 2, 3, 4)]
    for b1, b2 in itertools.product(parts, repeat=2):
        combined = is_cubiquitous_bruteforce(direct_sum(b1, b2)).status
        each = (is_cubiquitous_bruteforce(b1).status is Status.CUBIQUITOUS
                and is_cubiquitous_bruteforce(b2).status is
                Status.CUBIQUITOUS)
        assert (combined is Status.CUBIQUITOUS) == each


def test_verdict_json_shape():
    v = is_cubiquitous_bruteforce(BasisMatrix([[3]]))
    assert v.to_json_dict() == {
        "status": "NotCubiquitous",
        "witness": [1],
        "inequality": None,
        "hajos_basis": None,
    }
