import itertools
import random
import time

import pytest

from cubiquity import (
    BasisMatrix,
    MixedSigns,
    NotOrthogonal,
    Status,
    Subset,
    ZeroParameter,
    catalog_blocks,
    classify_orthogonal,
    decompose,
    det4_formula,
    det4_zero_solutions,
    is_cubiquitous_bruteforce,
    is_non_acute,
    is_orthogonal,
    torus_sum_bounds_qball,
)
from families import orthogonal_sum
from helpers import cofactor_det, det4_quartic_scan, gram


def test_decompose_examples():
    d = decompose(Subset([(1, 0, 0, 0), (0, 2, 0, 0),
                          (0, 0, 1, 1), (0, 0, 1, -1)]))
    assert d.kinds == ("Unit", "TwoTimes", "Hyper2x2")

    assert decompose(Subset([(3,)])).kinds == ("Other",)

    first, _ = catalog_blocks()
    d = decompose(Subset(first.columns))
    assert d.kinds == ("Other",)
    assert d.blocks[0].coordinates == tuple(range(8))
    assert d.blocks[0].vectors == tuple(range(8))


def test_decompose_degenerate_shapes():
    # zero vector trails as its own block; the unused coordinate joins none
    d = decompose(Subset([(1, 0), (0, 0)]))
    kinds = d.kinds
    assert kinds.count("Other") >= 1
    all_vectors = sorted(v for b in d.blocks for v in b.vectors)
    assert all_vectors == [0, 1]


def test_sparse_predicates_and_classify_at_n512():
    # the dense Gram matrix is O(n^3), about 10 s at this size on CPython
    # 3.11; the products over shared coordinates take milliseconds
    s = Subset(zip(*orthogonal_sum(random.Random(97), 512)))
    assert s.n == 512
    for decide in (is_orthogonal, is_non_acute, classify_orthogonal):
        start = time.perf_counter()
        result = decide(s)
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, (decide.__name__, elapsed)
        if decide is classify_orthogonal:
            assert result.status == Status.NOT_CUBIQUITOUS
            assert result.block.kind == "Other"
        else:
            assert result is True


def test_hyper_recognition_up_to_signed_permutation():
    for signs in itertools.product((-1, 1), repeat=2):
        for order in ((0, 1), (1, 0)):
            base = [(1, 1), (1, -1)]
            vecs = [tuple(signs[j] * v[order[j]] for j in range(2))
                    for v in base]
            assert decompose(Subset(vecs)).kinds == ("Hyper2x2",)
    # same support but non-orthogonal pairs are not hyperbolic
    assert decompose(Subset([(1, 1), (-1, -1)])).kinds == ("Other",)


def test_two_vector_blocks_at_distant_coordinates():
    # each block's kind is read from its own two coordinates, far apart
    for pair, kind in (([(1, 1), (1, -1)], "Hyper2x2"),
                       ([(1, 1), (1, 1)], "Other")):
        vectors = [tuple(int(j == k) for j in range(64)) for k in range(64)]
        for v, (x, y) in zip((3, 60), pair):
            vectors[v] = tuple(x if j == 3 else y if j == 60 else 0
                               for j in range(64))
        kinds = decompose(Subset(vectors)).kinds
        assert kinds.count(kind) == 1 and kinds.count("Unit") == 62
        assert len(kinds) == 63


def test_classify_examples():
    v = classify_orthogonal(
        Subset([(1, 1, 0, 0), (1, -1, 0, 0), (0, 0, 2, 0), (0, 0, 0, 1)]))
    assert v.status is Status.CUBIQUITOUS

    v = classify_orthogonal(Subset([(3, 0), (0, 1)]))
    assert v.status is Status.NOT_CUBIQUITOUS
    assert v.block is not None and v.block.kind == "Other"
    assert is_cubiquitous_bruteforce(
        BasisMatrix([[3, 0], [0, 1]])).status is Status.NOT_CUBIQUITOUS

    norm25 = Subset([(1, 0, 0), (0, 3, 4), (0, 4, -3)])
    v = classify_orthogonal(norm25)
    assert v.status is Status.NOT_CUBIQUITOUS
    assert is_cubiquitous_bruteforce(
        norm25.to_basis()).status is Status.NOT_CUBIQUITOUS

    with pytest.raises(NotOrthogonal):
        classify_orthogonal(Subset([(1, 1), (0, 1)]))


def test_classify_empty_subset():
    assert classify_orthogonal(Subset([])).status is Status.CUBIQUITOUS


def test_torus_rule_examples():
    assert torus_sum_bounds_qball([-4, -4]) is True
    assert torus_sum_bounds_qball([-2, -4]) is False
    assert torus_sum_bounds_qball([-2, -2]) is True
    assert torus_sum_bounds_qball([-3]) is False
    assert torus_sum_bounds_qball([-1, -1, -4]) is True
    assert torus_sum_bounds_qball([4, 4]) is True

    with pytest.raises(MixedSigns):
        torus_sum_bounds_qball([2, -2])
    with pytest.raises(ZeroParameter):
        torus_sum_bounds_qball([0, 2])
    with pytest.raises(ZeroParameter):
        torus_sum_bounds_qball([])


def test_torus_rule_rejects_floats():
    # 2.5 is no half-twist count; int() would have read it as 2
    with pytest.raises(TypeError):
        torus_sum_bounds_qball([2.5, 2])
    with pytest.raises(TypeError):
        torus_sum_bounds_qball([2.0, 2])


def test_det4_formula_examples():
    assert det4_formula(3, 3, 3, 3) == 0
    assert det4_formula(1, 5, 5, 5) == 0
    assert det4_formula(1, 1, 1, 1) == -16
    # exact integers only, as BasisMatrix and Subset take
    for bad in (1.5, "2"):
        for at in range(4):
            values = [3, 3, 3, 3]
            values[at] = bad
            with pytest.raises(TypeError):
                det4_formula(*values)


def test_det4_zero_solutions_match_quartic_scan():
    # the table at a smaller bound is the rows of the table at 60 whose
    # largest entry d fits, so one reference scan serves every bound
    reference = det4_quartic_scan(60)
    for bound in range(1, 61):
        assert det4_zero_solutions(bound) == [
            sol for sol in reference if sol[3] <= bound]


def test_det4_zero_solutions_do_not_grow_with_bound():
    table = det4_zero_solutions(10 ** 9)
    assert table == det4_zero_solutions(41)
    assert len(table) == 14
    assert table[0] == (1, 2, 6, 41)


def test_det4_zero_solutions_symmetric_closed():
    solutions = set(det4_zero_solutions(12))
    for sol in solutions:
        for perm in itertools.permutations(sol):
            assert tuple(sorted(perm)) in solutions
            assert det4_formula(*perm) == 0


def test_det4_zero_solutions_bound_validation():
    with pytest.raises(ValueError):
        det4_zero_solutions(0)


def test_catalog_blocks_structure():
    first, second = catalog_blocks()
    assert first.column(0) == (1, 1, 0, 0, 0, 0, 0, 0)
    for block in (first, second):
        s = Subset(block.columns)
        g = gram(s)
        assert all(g[i][j] == 0 for i in range(8) for j in range(8)
                   if i != j)
        for row in block.rows:
            assert sum(1 for x in row if x != 0) == 4
            assert all(x in (-1, 0, 1) for x in row)
    # determinants: first pinned by the published magnitude, second pinned
    # as a regression value computed once by exact expansion
    assert abs(first.det) == 128
    assert second.det == 144
    assert cofactor_det([list(r) for r in second.rows]) == 144
