import random

import pytest

from cubiquity import (
    NotNonAcute,
    NotOrthogonal,
    PreconditionFailed,
    Status,
    Subset,
    catalog_blocks,
    contract,
    double_project,
    is_non_acute,
    is_orthogonal,
    length_three_family,
    project,
    reduce,
    stats,
    trace_reduce,
    wu_element,
    wu_obstruction,
    wu_preserved,
)
from helpers import assemble_blocks, signed_permutation


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
        combo = [rng.choice(["unit", "double", "triple", "hyper", "anti3"])
                 for _ in range(rng.randint(1, 3))]
        s = Subset(signed_permutation(assemble_blocks(combo), rng))
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
        combo = [rng.choice(["unit", "double", "triple", "hyper", "anti3"])
                 for _ in range(rng.randint(1, 3))]
        s = Subset(signed_permutation(assemble_blocks(combo), rng))
        expected = reduce(s)
        assert random_reduce(s, rng) == expected


def test_projection_preserves_orthogonality():
    rng = random.Random(61)
    for _ in range(100):
        combo = [rng.choice(["unit", "double", "hyper"])
                 for _ in range(rng.randint(2, 3))]
        s = Subset(signed_permutation(assemble_blocks(combo), rng))
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
