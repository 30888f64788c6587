import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiquity import (
    BasisMatrix,
    DimensionMismatch,
    SingularMatrix,
    catalog_blocks,
    contains,
    det,
    direct_sum,
    gram,
    hnf,
)
from cubiquity.lattice import hnf_box
from helpers import cofactor_det, hnf_matrices


def test_det_examples():
    assert det(BasisMatrix([[1, 0], [0, 1]])) == 1
    assert det(BasisMatrix([[2, 0], [0, 2]])) == 4


def test_det_catalog_block_matches_cofactor_expansion():
    # Product of the column norms is 2^14, so |det| must be 2^7.
    first, _ = catalog_blocks()
    expansion = cofactor_det([list(r) for r in first.rows])
    assert det(first) == expansion
    assert abs(det(first)) == 128


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n)))
@settings(max_examples=150)
def test_det_agrees_with_cofactor_expansion(rows):
    rows = [tuple(r) for r in rows]
    expected = cofactor_det(rows)
    if expected == 0:
        with pytest.raises(SingularMatrix):
            BasisMatrix(rows)
    else:
        assert det(BasisMatrix(rows)) == expected


def test_basis_matrix_validation():
    with pytest.raises(SingularMatrix):
        BasisMatrix([[1, 1], [1, 1]])
    with pytest.raises(DimensionMismatch):
        BasisMatrix([[1, 0, 0], [0, 1, 0]])
    with pytest.raises(DimensionMismatch):
        BasisMatrix([])


def test_hnf_examples():
    assert hnf(BasisMatrix([[2, 0], [0, 2]])).rows == ((2, 0), (0, 2))
    assert hnf(BasisMatrix([[2, 2], [0, 2]])).rows == ((2, 0), (0, 2))
    assert hnf(BasisMatrix([[1, -1], [1, 1]])).rows == ((1, 0), (1, 2))


def test_hnf_preserves_lattice_up_to_index_4():
    b = BasisMatrix([[1, -1], [1, 1]])
    h = hnf(b)
    for x in itertools.product(range(-4, 5), repeat=2):
        assert contains(b, x) == contains(h, x)


def _random_basis(rng, n, span=5):
    while True:
        rows = [[rng.randint(-span, span) for _ in range(n)]
                for _ in range(n)]
        try:
            return BasisMatrix(rows)
        except SingularMatrix:
            continue


def test_hnf_shape_and_determinant():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            b = _random_basis(rng, n)
            h = hnf(b)
            assert det(h) == abs(det(b))
            for i in range(n):
                assert h.rows[i][i] > 0
                for j in range(n):
                    if j > i:
                        assert h.rows[i][j] == 0
                    elif j < i:
                        assert 0 <= h.rows[i][j] < h.rows[i][i]


def test_hnf_same_point_set_small_boxes():
    rng = random.Random(11)
    for n in (2, 3):
        for _ in range(8):
            b = _random_basis(rng, n, span=3)
            h = hnf(b)
            for x in itertools.product(range(-5, 6), repeat=n):
                assert contains(b, x) == contains(h, x)


def test_hnf_unique_for_fixed_row_order():
    rng = random.Random(13)
    for _ in range(25):
        b = _random_basis(rng, 3, span=4)
        # Unimodular recombination of the columns spans the same lattice.
        c = list(list(col) for col in b.columns)
        c[0] = [u + 2 * v for u, v in zip(c[0], c[1])]
        c[2] = [u - v for u, v in zip(c[2], c[0])]
        assert hnf(BasisMatrix.from_columns(c)) == hnf(b)


def test_contains_examples():
    b = BasisMatrix([[2, 0], [0, 2]])
    assert contains(b, (2, -4)) is True
    assert contains(b, (1, 0)) is False
    first, _ = catalog_blocks()
    assert contains(first, (-2, 1, 1, 1, 1, 1, 1, 1)) is False
    with pytest.raises(DimensionMismatch):
        contains(b, (1, 2, 3))


def test_contains_every_lattice_combination():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        b = _random_basis(rng, n, span=3)
        for z in itertools.product(range(-3, 4), repeat=n):
            point = tuple(
                sum(b.columns[j][i] * z[j] for j in range(n))
                for i in range(n))
            assert contains(b, point) is True


def test_coset_reps_examples():
    # the HNF box is the canonical system of coset representatives
    reps = tuple(hnf_box(BasisMatrix([[2, 0], [0, 2]])))
    assert reps == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tuple(hnf_box(BasisMatrix([[1]]))) == ((0,),)

    reps = tuple(hnf_box(BasisMatrix([[2, 1], [0, 2]])))
    assert len(reps) == 4
    # The listed points are pairwise non-congruent, so they also form a
    # complete system for this index-4 lattice.
    alternative = [(0, 0), (1, 0), (0, 1), (1, 1)]
    b = BasisMatrix([[2, 1], [0, 2]])
    for r, s in itertools.combinations(alternative, 2):
        assert contains(b, tuple(a - c for a, c in zip(r, s))) is False


def test_coset_reps_pairwise_non_congruent():
    for b in hnf_matrices(2, (6,)) + hnf_matrices(3, (4,)):
        reps = tuple(hnf_box(b))
        assert len(reps) == abs(det(b))
        for r, s in itertools.combinations(reps, 2):
            assert contains(b, tuple(a - c for a, c in zip(r, s))) is False


def test_gram_examples():
    assert gram([(1, 1), (1, -1)]) == ((2, 0), (0, 2))
    assert gram([(2,)]) == ((4,),)
    first, _ = catalog_blocks()
    g = gram(first.columns)
    assert tuple(g[i][i] for i in range(8)) == (2, 4, 8, 8, 2, 2, 4, 2)
    assert all(g[i][j] == 0 for i in range(8) for j in range(8) if i != j)


def test_direct_sum_examples():
    assert direct_sum(BasisMatrix([[1]]), BasisMatrix([[2]])).rows == \
        ((1, 0), (0, 2))
    four = direct_sum(BasisMatrix([[2, 0], [0, 2]]),
                      BasisMatrix([[1, -1], [1, 1]]))
    assert four.rows == ((2, 0, 0, 0), (0, 2, 0, 0),
                         (0, 0, 1, -1), (0, 0, 1, 1))


def test_direct_sum_determinant_multiplicative():
    rng = random.Random(23)
    for _ in range(40):
        b1 = _random_basis(rng, 2, span=4)
        b2 = _random_basis(rng, 2, span=4)
        assert det(direct_sum(b1, b2)) == det(b1) * det(b2)
