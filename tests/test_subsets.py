import collections
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiquity import (
    DimensionMismatch,
    Subset,
    catalog_blocks,
    check_identity,
    decompose,
    is_non_acute,
    is_orthogonal,
    stats,
    wu_element,
)
from cubiquity.subsets import _identity_holds
from families import subsets
from helpers import (
    bench_plan,
    decompose_reference,
    edge_subsets,
    gram,
    identity_reference,
    is_non_acute_reference,
    is_orthogonal_reference,
    stats_reference,
    wu_element_reference,
)


def test_stats_hyper_pair():
    st_ = stats(Subset([(1, 1), (1, -1)]))
    assert st_.counts == (0, 0, 2)
    assert st_.excess == -2
    assert st_.by_coordinate == ((0, 1), (0, 1))
    assert st_.by_vector == ((0, 1), (0, 1))


def test_stats_single_triple_vector():
    st_ = stats(Subset([(3,)]))
    assert st_.counts == (0, 1)
    assert st_.excess == 6
    # the lone coordinate carries an entry of magnitude >= 2
    assert st_.heavy[1] == (0,)


def test_stats_catalog_block():
    first, _ = catalog_blocks()
    st_ = stats(Subset(first.columns))
    assert st_.counts[4] == 8
    assert st_.excess == 8


def test_stats_empty_subset():
    st_ = stats(Subset([]))
    assert st_.counts == (0,)
    assert st_.excess == 0
    assert check_identity(Subset([]))


def test_subset_validation():
    with pytest.raises(DimensionMismatch):
        Subset([(1, 0), (0, 1), (1, 1)])


@pytest.mark.parametrize("bad", [1.0, "1"])
def test_subset_rejects_non_integers(bad):
    # the same check BasisMatrix makes on its entries
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        Subset([(1, 0), (0, bad)])


def test_subset_entries_are_exact_ints():
    s = Subset([[True, 0], range(2)])
    assert s.vectors == ((1, 0), (0, 1))
    assert all(type(x) is int for v in s.vectors for x in v)


def test_check_identity_hand_cases():
    # {e1+e2, e1-e2}: lhs = 0 + 2 - 2 = 0, rhs = 0
    assert check_identity(Subset([(1, 1), (1, -1)]))
    # {3e1}: lhs = 2 + 0 + 6 = 8, rhs = 9 - 1 = 8
    assert check_identity(Subset([(3,)]))


@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-4, 4), min_size=n, max_size=n),
        min_size=n, max_size=n)))
@settings(max_examples=200)
def test_check_identity_property(vectors):
    assert check_identity(Subset(vectors))


def test_is_orthogonal():
    assert is_orthogonal(Subset([(1, 1), (1, -1)]))
    assert not is_orthogonal(Subset([(1, 1, 0), (0, 1, 1), (-1, 0, 1)]))
    for block in catalog_blocks():
        assert is_orthogonal(Subset(block.columns))
    # zero vectors are rejected
    assert not is_orthogonal(Subset([(1, 0), (0, 0)]))


def test_is_non_acute():
    assert is_non_acute(Subset([(1, 1), (1, -1)]))
    # Gram [[2,-1,0],[-1,10,-1],[0,-1,2]]: 2 >= 1, 10 >= 2, 2 >= 2
    assert is_non_acute(Subset([(1, 1, 0), (0, -1, 3), (-1, 1, 0)]))
    # positive product fails
    assert not is_non_acute(Subset([(1, 1, 0), (1, 0, 1), (0, 0, 1)]))
    # row dominance fails: a_2 = 2 < 3
    assert not is_non_acute(Subset([(1, 1, 0), (-1, 0, 1), (1, -1, -1)]))


def test_orthogonal_implies_non_acute():
    rng = random.Random(5)
    for _ in range(200):
        n = rng.randint(1, 5)
        s = Subset([tuple(rng.randint(-2, 2) for _ in range(n))
                    for _ in range(n)])
        if is_orthogonal(s):
            assert is_non_acute(s)


def test_counts_partition_and_support_balance():
    rng = random.Random(6)
    for _ in range(200):
        n = rng.randint(1, 6)
        s = Subset([tuple(rng.randint(-3, 3) for _ in range(n))
                    for _ in range(n)])
        st_ = stats(s)
        assert sum(st_.counts) == n
        assert sum(len(e) for e in st_.by_coordinate) == \
            sum(len(v) for v in st_.by_vector)
        for m in range(n + 1):
            assert set(st_.heavy[m]) <= set(st_.classes[m])
            for j in st_.classes[m]:
                assert len(st_.by_coordinate[j]) == m


def test_reorder_and_negate_helpers():
    s = Subset([(1, 0), (1, 2)])
    assert s.reorder([1, 0]).vectors == ((1, 2), (1, 0))
    assert s.negate([0]).vectors == ((-1, 0), (1, 2))
    with pytest.raises(DimensionMismatch):
        s.reorder([0, 0])


def test_reorder_reads_an_iterator_once():
    # sorted() used to drain it, leaving an empty Subset
    s = Subset([(1, 0), (1, 2)])
    assert s.reorder(iter([1, 0])) == s.reorder([1, 0])


@pytest.mark.parametrize("indices", [[5], [-1], [0, 2]])
def test_negate_rejects_indices_outside_range(indices):
    with pytest.raises(DimensionMismatch):
        Subset([(1, 0), (1, 2)]).negate(indices)


def test_norms_and_gram():
    s = Subset([(1, 1, 0), (0, -1, 3), (-1, 1, 0)])
    assert s.norms == (2, 10, 2)
    assert gram(s) == ((2, -1, 0), (-1, 10, -1), (0, -1, 2))


def _same_as_references(s):
    """The support-list routes of s against the dense references; returns
    the predicates' answers."""
    orthogonal, non_acute = is_orthogonal(s), is_non_acute(s)
    assert orthogonal == is_orthogonal_reference(s), s
    assert non_acute == is_non_acute_reference(s), s
    assert decompose(s) == decompose_reference(s), s
    assert wu_element(s) == wu_element_reference(s), s
    st_ = stats(s)
    assert st_ == stats_reference(s), s
    assert s.norms == tuple(sum(x * x for x in v) for v in s.vectors), s
    lhs, rhs = identity_reference(s)
    assert lhs == rhs and _identity_holds(s, st_), s
    assert not _identity_holds(s, st_._replace(excess=st_.excess + 1)), s
    return orthogonal, non_acute


def test_predicates_match_dense_reference():
    # and the other subset routes, on small and edge-case subsets
    drawn = [Subset(zip(*rows)) for rows in subsets(random.Random(83), 400)]
    outcomes = {_same_as_references(s) for s in drawn + edge_subsets()}
    # both answers of each predicate, and non-acute without orthogonal
    assert outcomes == {(True, True), (False, True), (False, False)}


def _perturbed(subset, rng):
    """The subset with one entry, chosen at random, moved by 1."""
    rows = [list(v) for v in subset.vectors]
    i, j = rng.randrange(subset.n), rng.randrange(subset.n)
    rows[i][j] += rng.choice((-1, 1))
    return Subset(rows)


def test_subset_routes_match_references_on_structure_plan():
    # every subset input of the benchmark's structure plan (seeds 1-3,
    # n = 16-64), and each with one entry moved, so that both answers of
    # each predicate occur at those sizes
    rng = random.Random(23)
    outcomes = collections.Counter()
    for seed in (1, 2, 3):
        for case in bench_plan("structure", seed):
            if case.command not in ("classify", "wu", "stats", "reduce"):
                continue
            s = Subset(zip(*case.rows))  # the columns are the vectors
            outcomes[case.command, _same_as_references(s)] += 1
            outcomes["moved", _same_as_references(_perturbed(s, rng))] += 1
    assert sum(outcomes.values()) == 2 * 249
    # (is_orthogonal, is_non_acute): only wu's inputs are not orthogonal
    assert {key for key in outcomes if key[0] != "moved"} == {
        ("classify", (True, True)), ("stats", (True, True)),
        ("reduce", (True, True)), ("wu", (False, True))}
    assert {answers for kind, answers in outcomes if kind == "moved"} == {
        (True, True), (False, True), (False, False)}
