import itertools
import random

import pytest

from cubiquity.subsets import _supports
from cubiquity import (
    NotNonAcute,
    NotOrthogonal,
    PreconditionFailed,
    SingularMatrix,
    Status,
    Subset,
    catalog_blocks,
    contract,
    double_project,
    is_cubiquitous_bruteforce,
    is_non_acute,
    is_orthogonal,
    project,
    reduce,
    stats,
    trace_reduce,
    wu_element,
    wu_obstruction,
)
from families import CUBIQUITOUS_BLOCKS, orthogonal_sum, signed_permutation
from helpers import (
    count_calls,
    length_three_family,
    trace_reduce_reference,
    wu_preserved,
)


def test_project_examples():
    s = Subset([(2, 0, 0), (0, 1, 1), (0, 1, -1)])
    assert project(s, 0).vectors == ((1, 1), (1, -1))

    assert project(Subset([(3,)]), 0).vectors == ()

    with pytest.raises(PreconditionFailed):
        project(Subset([(1, 1), (1, -1)]), 0)
    with pytest.raises(NotOrthogonal):
        project(Subset([(1, 0), (1, 1)]), 0)


def test_double_project_examples():
    s = Subset([(1, 1, 0), (1, -1, 0), (0, 0, 2)])
    assert double_project(s, 0).vectors == ((2,),)

    assert double_project(Subset([(1, 1), (1, -1)]), 0).vectors == ()

    # coordinate 0 carries an entry of magnitude 2, so it is heavy
    heavy = Subset([(1, 2), (2, -1)])
    assert is_orthogonal(heavy)
    with pytest.raises(PreconditionFailed):
        double_project(heavy, 0)
    # not a pair at all
    with pytest.raises(PreconditionFailed):
        double_project(Subset([(1, 0), (0, 1)]), 0)


def test_reduce_examples():
    s = Subset([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)])
    reduced, steps = trace_reduce(s)
    assert reduced.vectors == ()
    assert [st.kind for st in steps] == \
        ["Projection", "Projection", "DoubleProjection"]

    assert reduce(Subset([(3,)])).vectors == ()

    first, _ = catalog_blocks()
    block = Subset(first.columns)
    assert reduce(block) == block


def test_reduce_postconditions():
    rng = random.Random(53)
    for _ in range(150):
        s = Subset(zip(*orthogonal_sum(rng, rng.randint(1, 6))))
        out = reduce(s)
        if out.n == 0:
            continue
        st = stats(out)
        assert all(len(v) >= 2 for v in st.by_vector)
        assert st.classes[2] == st.heavy[2]
        assert st.counts[1] == 0


def test_reduce_order_invariance():
    # apply applicable moves in random order; final subset must not change
    def random_reduce(s, rng):
        while True:
            st = stats(s)
            moves = [("p", i) for i in range(s.n)
                     if len(st.by_vector[i]) == 1]
            for i in range(s.n):
                users = st.by_coordinate[i]
                if (len(users) == 2
                        and abs(s.vectors[users[0]][i]) == 1
                        and abs(s.vectors[users[1]][i]) == 1
                        and st.by_vector[users[0]] == st.by_vector[users[1]]
                        and len(st.by_vector[users[0]]) == 2):
                    moves.append(("d", i))
            if not moves:
                return s
            kind, idx = rng.choice(moves)
            s = project(s, idx) if kind == "p" else double_project(s, idx)

    rng = random.Random(59)
    for _ in range(120):
        s = Subset(zip(*orthogonal_sum(rng, rng.randint(1, 6))))
        expected = reduce(s)
        assert random_reduce(s, rng) == expected


def test_projection_preserves_orthogonality():
    rng = random.Random(61)
    for _ in range(100):
        s = Subset(zip(*orthogonal_sum(rng, rng.randint(2, 6),
                                       CUBIQUITOUS_BLOCKS)))
        st = stats(s)
        for i in range(s.n):
            if len(st.by_vector[i]) == 1:
                assert is_orthogonal(project(s, i))
                break
        for i in range(s.n):
            users = st.by_coordinate[i]
            if (len(users) == 2
                    and abs(s.vectors[users[0]][i]) == 1
                    and abs(s.vectors[users[1]][i]) == 1
                    and st.by_vector[users[0]] == st.by_vector[users[1]]
                    and len(st.by_vector[users[0]]) == 2):
                assert is_orthogonal(double_project(s, i))
                break


def _count_route_work(monkeypatch):
    return {name: count_calls(monkeypatch, "cubiquity.subsets", name)
            for name in ("is_orthogonal", "_supports")}


def test_trace_checks_orthogonality_once(monkeypatch):
    calls = _count_route_work(monkeypatch)
    s = Subset(zip(*orthogonal_sum(random.Random(71), 32)))
    reduced, steps = trace_reduce(s)
    assert len(steps) > 5 and reduced.n > 0
    # the support index is built once, by the entry check, and plans
    # every step
    assert {name: len(c) for name, c in calls.items()} == \
        {"is_orthogonal": 1, "_supports": 1}


@pytest.mark.parametrize("rewrite, at", [(project, 0), (double_project, 1)])
def test_rewrite_builds_the_support_index_once(rewrite, at, monkeypatch):
    vectors = [(2, 0, 0), (0, 1, 1), (0, 1, -1)]
    expected = rewrite(Subset(vectors), at)
    calls = _count_route_work(monkeypatch)
    # the entry check and the precondition read one index
    assert rewrite(Subset(vectors), at) == expected
    assert {name: len(c) for name, c in calls.items()} == \
        {"is_orthogonal": 1, "_supports": 1}


def test_trace_matches_reference():
    # the trace is planned from the entry index alone; every step must
    # still match the reference, which rebuilds the supports per step
    rng = random.Random(73)
    kinds = set()
    total = 0
    for n in list(range(65)) + [64] * 3 + [128] * 3:
        s = Subset(zip(*orthogonal_sum(rng, n)))
        reduced, steps = trace_reduce(s)
        expected = trace_reduce_reference(s)
        assert (reduced, steps) == expected, s
        # reduce replays the same plan and snapshots once, at the end
        assert reduce(s) == expected[0], s
        for step in steps:
            # the unchecked results hold the same tuples of ints
            assert step.result == Subset(step.result.vectors)
            assert all(type(x) is int
                       for v in step.result.vectors for x in v)
            kinds.add(step.kind)
        total += len(steps)
    assert kinds == {"Projection", "DoubleProjection"}
    assert total > 600


def _contract_reference(subset, i, s, t, u):
    """The contraction rebuilt entry by entry through the checked
    constructor."""
    vecs = subset.vectors
    merged = tuple(a + b for a, b in zip(vecs[s], vecs[t]))
    truncated = tuple(x if j != i else 0 for j, x in enumerate(vecs[u]))
    survivors = [v for k, v in enumerate(vecs) if k not in (s, t, u)]
    keep = [j for j in range(subset.n) if j != i]
    return Subset(tuple(v[j] for j in keep)
                  for v in survivors + [merged, truncated])


def test_contract_matches_checked_rebuild():
    rng = random.Random(79)
    subsets = [_expansion(x) for x in (1, 2, 3, -4)]
    for _ in range(400):
        n = rng.randint(3, 7)
        subsets.append(Subset(
            tuple(rng.choice((0, 0, 0, 1, -1, 1, -1, 2)) for _ in range(n))
            for _ in range(n)))
    hits = 0
    for s in subsets:
        for i, users in enumerate(_supports(s)[1]):
            if len(users) != 3:
                continue
            for a, b, c in itertools.permutations(users):
                try:
                    out = contract(s, i, a, b, c)
                except PreconditionFailed:
                    continue
                hits += 1
                assert out == _contract_reference(s, i, a, b, c), (s, i)
                assert all(type(x) is int for v in out.vectors for x in v)
    assert hits >= 150


@pytest.mark.parametrize("rewrite, clause", [
    (project, "vector s must lie in range(3)"),
    (double_project, "coordinate i must lie in range(3)"),
])
def test_rewrites_reject_indices_outside_range(rewrite, clause):
    # -1 used to act on the last vector or coordinate, 3 to raise IndexError
    s = Subset([(1, 1, 0), (1, -1, 0), (0, 0, 1)])
    for bad in (-1, 3):
        with pytest.raises(PreconditionFailed) as err:
            rewrite(s, bad)
        assert str(err.value) == clause
    with pytest.raises(TypeError):
        rewrite(s, 0.0)


def test_rewrites_still_check_orthogonality():
    # every other precondition holds: vector 0 is supported on coordinate
    # 0 alone, and coordinate 0 of the second subset carries a hyperbolic
    # pair; but a further vector meets them
    single = Subset([(1, 0), (1, 1)])
    with pytest.raises(NotOrthogonal):
        project(single, 0)
    pair = Subset([(1, 1, 0), (1, -1, 0), (0, 1, 1)])
    with pytest.raises(NotOrthogonal):
        double_project(pair, 0)
    for s in (single, pair):
        with pytest.raises(NotOrthogonal):
            trace_reduce(s)


def test_contract_example():
    s = Subset([(1, 1, 0), (-1, 0, 1), (1, -1, -1)])
    out = contract(s, 0, 0, 1, 2)
    assert out.vectors == ((1, 1), (-1, -1))

    # Wu element loses exactly the contracted coordinate
    wu_before = wu_element(s).vector
    wu_after = wu_element(out).vector
    assert wu_before == (1, 0, 0)
    assert wu_after == (0, 0)
    assert wu_before[1:] == wu_after
    assert abs(wu_before[0]) == 1


def test_contract_precondition_errors():
    s = Subset([(1, 1, 0), (-1, 0, 1), (1, -1, -1)])
    with pytest.raises(PreconditionFailed):
        contract(s, 1, 0, 1, 2)  # coordinate 1 not supported by all three
    with pytest.raises(PreconditionFailed):
        contract(s, 0, 0, 2, 1)  # <v_s, v_t> = 0, not -1
    with pytest.raises(PreconditionFailed):
        contract(Subset([(1, 1), (1, -1)]), 0, 0, 1, 1)
    # norm of v_u below 3
    small = Subset([(1, 1, 0), (-1, 0, 1), (1, 0, 0)])
    with pytest.raises(PreconditionFailed):
        contract(small, 0, 0, 1, 2)


def test_contract_index_out_of_range():
    s = Subset([(1, 1, 0), (-1, 0, 1), (1, -1, -1)])
    for args in ((3, 0, 1, 2), (-1, 0, 1, 2), (0, 0, 1, 3), (0, -3, 1, 2)):
        with pytest.raises(PreconditionFailed, match="range"):
            contract(s, *args)
    # (0, 0, 1, 2) is a valid contraction; floats are refused at entry
    for args in ((0.0, 0, 1, 2), (0, 0, 1, 2.0)):
        with pytest.raises(TypeError, match="as an integer"):
            contract(s, *args)


def _expansion(x):
    """Non-acute 4-dim subset that contracts at (i,s,t,u)=(3,0,1,2) onto
    the three-vector family with parameter x."""
    return Subset([(0, -1, 0, 1), (0, 0, x, -1), (1, 1, 0, 1),
                   (-1, 1, 0, 0)])


def test_wu_preserved_on_family_expansions():
    for x in (3, 4, 5, -3, -4, -5):
        s = _expansion(x)
        assert is_non_acute(s)
        out = contract(s, 3, 0, 1, 2)
        assert is_non_acute(out)
        assert sorted(out.vectors) == sorted(length_three_family(x).vectors)
        assert wu_preserved(s, 3, 0, 1, 2)
        assert wu_obstruction(out).status is Status.OBSTRUCTED
    for x in (1, 2, -1, -2):
        assert wu_preserved(_expansion(x), 3, 0, 1, 2)
        assert wu_obstruction(_expansion(x)).status is Status.INCONCLUSIVE


def test_wu_preserved_propagates_non_acute_failure():
    # the plain contract example is not non-acute (row 2 fails dominance)
    s = Subset([(1, 1, 0), (-1, 0, 1), (1, -1, -1)])
    assert not is_non_acute(s)
    with pytest.raises(NotNonAcute):
        wu_preserved(s, 0, 0, 1, 2)


def _verdict(subset):
    """Brute force's status, or None for a dependent subset."""
    try:
        basis = subset.to_basis()
    except SingularMatrix:
        return None
    return is_cubiquitous_bruteforce(basis).status


def _non_acute_contractible(rng):
    """Random non-acute, full-rank subsets at n = 3-6, with their brute
    force verdicts, whose coordinate 0 carries the unit entries +1, -1,
    +-1 of vectors 0, 1, 2 and no other entry, signed-permuted: the shape
    a contraction needs."""
    while True:
        n = rng.randint(3, 6)
        vectors = [[rng.choice((0, 0, 0, 1, -1, 1, -1, 2, -2))
                    for _ in range(n)] for _ in range(n)]
        units = (1, -1, rng.choice((1, -1)))
        rows = [list(r) for r in zip(*vectors)]
        rows[0] = [units[k] if k < 3 else 0 for k in range(n)]
        s = Subset(zip(*signed_permutation(rows, rng)))
        verdict = _verdict(s) if is_non_acute(s) else None
        if verdict is not None:
            yield s, verdict


def _contractions(s):
    for i, users in enumerate(_supports(s)[1]):
        if len(users) != 3:
            continue
        for args in itertools.permutations(users):
            try:
                yield contract(s, i, *args)
            except PreconditionFailed:
                continue


def test_contraction_keeps_the_verdict_between_non_acute_subsets():
    # brute force decides both sides; a contraction can leave u's row one
    # short of dominance, and then the verdict may change
    rng = random.Random(101)
    same = 0
    sources = _non_acute_contractible(rng)
    while same < 300:
        s, verdict = next(sources)
        for out in _contractions(s):
            after = _verdict(out) if is_non_acute(out) else None
            if after is not None:
                assert after == verdict, (s, out)
                same += 1


def test_contraction_verdict_flips():
    # a non-acute source whose contraction is not non-acute
    s = Subset([(1, -1, -1, -1), (-1, 0, -1, 1), (1, 1, 0, 0),
                (0, -1, 2, 2)])
    out = contract(s, 0, 1, 2, 0)
    assert is_non_acute(s) and not is_non_acute(out)
    assert out.vectors == ((-1, 2, 2), (1, -1, 1), (-1, -1, -1))
    assert (_verdict(s), _verdict(out)) == \
        (Status.NOT_CUBIQUITOUS, Status.CUBIQUITOUS)
    # a source that is not non-acute: vectors 1 and 2 have product 3
    s = Subset([(-1, -1, 0), (0, 1, 1), (2, 1, 2)])
    out = contract(s, 1, 0, 1, 2)
    assert not is_non_acute(s)
    assert out.vectors == ((-1, 1), (2, 2))
    assert (_verdict(s), _verdict(out)) == \
        (Status.CUBIQUITOUS, Status.NOT_CUBIQUITOUS)


def test_contract_wu_bookkeeping():
    for x in (1, 2, 3, 4, 5):
        s = _expansion(x)
        out = contract(s, 3, 0, 1, 2)
        before = wu_element(s)
        after = wu_element(out)
        assert sum(k * k for k in before.vector) == \
            sum(k * k for k in after.vector) + 1
        assert len(before.odd) == len(after.odd) + 1


def test_length_three_family():
    fam = length_three_family(2)
    assert fam.vectors == ((1, 1, 0), (0, -1, 2), (-1, 1, 0))
    assert wu_element(fam).vector == (0, 1, 2)
    with pytest.raises(ValueError):
        length_three_family(0)
    for x in (-5, -3, 3, 7):
        assert wu_obstruction(length_three_family(x)).status is \
            Status.OBSTRUCTED
    for x in (-2, -1, 1, 2):
        assert wu_obstruction(length_three_family(x)).status is \
            Status.INCONCLUSIVE
