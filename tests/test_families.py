"""The answers that tests/families.py states by construction, re-checked
with the oracles of tests/helpers.py alone."""

import itertools
import math
import random

import pytest

from cubiquity import BasisMatrix, Status
from families import FAMILIES
from helpers import (
    bruteforce_vertex_scan,
    coset_cover_reference,
    hajos_prefix_dfs,
    hnf_reference,
    membership_reference,
)


@pytest.mark.parametrize("name", FAMILIES)
def test_family_answers_hold(name):
    # one draw at each n = 1-8; "Obstructed" is NotCubiquitous with
    # |det| > 2^n, and at |det| = 2^n a Hajos basis exists exactly when the
    # lattice is cubiquitous (Hajos's theorem)
    status, draw = FAMILIES[name]
    rng = random.Random(name)
    for n in range(1, 9):
        rows, witness = draw(rng, n)
        b = BasisMatrix(rows)
        h = hnf_reference(b)
        index = math.prod(h.rows[i][i] for i in range(n))
        if status == "Obstructed":
            assert index > 2 ** n, rows
        expected = Status.CUBIQUITOUS if status == "Cubiquitous" \
            else Status.NOT_CUBIQUITOUS
        assert bruteforce_vertex_scan(b).status is expected, rows
        assert coset_cover_reference(b).status is expected, rows
        if index == 2 ** n:
            # the DFS over prefix sets, not the n! row orders of
            # hajos_permutation_scan, which take seconds at n = 8
            found = hajos_prefix_dfs(b)[0] is not None
            assert found == (expected is Status.CUBIQUITOUS), rows
        if witness is not None:
            member = membership_reference(b)
            assert not any(member([a + e for a, e in zip(witness, eps)])
                           for eps in itertools.product((0, 1), repeat=n))
