import inspect
import itertools
import math
import random
import struct
import sys
import time

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
    hnf,
)
from cubiquity.cosets import _diagonalize
from cubiquity import lattice, packed
from cubiquity.lattice import (
    _PACKED_BELOW,
    _PACKED_FROM,
    _bareiss_det,
    _det_entries,
    _hajos_pick,
    _hnf,
    _triangulate,
)
from cubiquity.packed import _PAIRS_FROM, _det_packed, _minor_bits
from families import (
    chain,
    cyclic,
    dense,
    hnf_rows,
    lower,
    mix,
    nonsingular,
    random_hnf,
    signed_mix,
    signed_permutation,
)
from helpers import (
    bench_plan,
    cofactor_det,
    count_calls,
    det_packed_reference,
    diagonalize_tietze_reference,
    gram,
    hnf_box,
    hnf_reference,
    membership_reference,
    minor_bits_reference,
)
from triangle import fresh_triangle


def _dets_agree(rows, pairs=(_PAIRS_FROM, 0)):
    """The det of rows, after checking that every determinant path gives
    it: `_det_entries`, `_bareiss_det`, the one-step packed reference,
    `_det_packed` at each `_PAIRS_FROM` in pairs (by default two columns
    per pass on long rows only, and on every stage), cofactor expansion up
    to n = 8, and `BasisMatrix(rows).det`.  `_det_packed` runs where every
    entry lies in [-2^63, 2^63), which its widest struct code holds.  A
    singular matrix has det 0 on every path, and `BasisMatrix` refuses it
    with a message that names its size.  A new determinant path joins
    here, so every input below runs it."""
    n = len(rows)
    expected = _det_entries(rows)
    assert _bareiss_det(rows) == expected, rows
    assert det_packed_reference(rows) == expected, rows
    if all(-2 ** 63 <= a < 2 ** 63 for row in rows for a in row):
        # at _PAIRS_FROM = 0 every stage pairs its steps, so that small
        # inputs reach every branch of the pair update too
        with pytest.MonkeyPatch.context() as mp:
            for pairs_from in pairs:
                mp.setattr(packed, "_PAIRS_FROM", pairs_from)
                assert _det_packed(rows) == expected, (pairs_from, rows)
    if n <= 8:
        assert cofactor_det(rows) == expected, rows
    if expected:
        assert BasisMatrix(rows).det == expected, rows
    else:
        with pytest.raises(SingularMatrix) as exc:
            BasisMatrix(rows)
        assert str(exc.value) == \
            f"columns of the {n}x{n} matrix are linearly dependent"
    return expected


def test_det_examples():
    assert det(BasisMatrix([[1, 0], [0, 1]])) == 1
    assert det(BasisMatrix([[2, 0], [0, 2]])) == 4


def test_det_catalog_block_matches_cofactor_expansion():
    # Product of the column norms is 2^14, so |det| must be 2^7.
    first, _ = catalog_blocks()
    assert abs(_dets_agree([list(r) for r in first.rows])) == 128


@given(st.integers(2, 4).flatmap(
    lambda n: st.lists(
        st.lists(st.integers(-6, 6), min_size=n, max_size=n),
        min_size=n, max_size=n)))
@settings(max_examples=150)
def test_det_agrees_with_cofactor_expansion(rows):
    _dets_agree([tuple(r) for r in rows])


def test_singular_message_names_the_dimension():
    # the message must not grow with the entries: n = 64 once gave 12,448
    # characters
    for rows in ([[0]], [[0] * 2] * 2, [[0] * 64] * 64,
                 [[10 ** 40, 10 ** 40], [1, 1]]):
        assert _dets_agree(rows) == 0


def _near_rows(rng, n, scale):
    """Dense rows of entries within 2^20 of scale, one per row negated."""
    rows = dense(rng, n, scale - 2 ** 20, scale + 2 ** 20)
    for row in rows:
        row[rng.randrange(n)] *= -1
    return rows


def test_det_kernels_agree_on_entries_near_2_to_100():
    # the slot width must come from the column norms: 100-bit entries
    # overflow any width sized for small entries.  _bareiss_det hands them
    # to _det_entries, and the one-step reference packs them byte-wise;
    # the packed kernel's struct codes hold entries below 2^63, so it runs
    # on entries near 2^62, whose code's 8 bytes still fall short of the
    # width their column norms ask for
    rng = random.Random(100)
    for n in list(range(1, 9)) + [_PACKED_FROM - 1, _PACKED_FROM, 24]:
        assert _dets_agree(_near_rows(rng, n, 2 ** 100)) != 0
        rows = _near_rows(rng, n, 2 ** 62)
        assert 8 < _minor_bits(rows)[min(7, n)] // 8 + 1 or n == 1
        assert _dets_agree(rows) != 0


def test_minor_bits_match_reference():
    rng = random.Random(8)
    for n, bound in [(1, 2), (5, 2), (20, 2), (20, 2 ** 31), (33, 2 ** 62)]:
        rows = dense(rng, n, -bound, bound)
        rows[0] = [0] * n  # a zero row, and below it a zero column
        for row in rows:
            row[n - 1] = 0
        assert _minor_bits(rows) == minor_bits_reference(rows)


#: each end of the ranges of the struct codes b, h and i, and the widest
#: entries _bareiss_det packs, with the narrowest code that holds them
CODE_BOUNDARIES = [
    (127, "b"), (-127, "b"), (-128, "b"), (128, "h"), (-129, "h"),
    (32767, "h"), (-32767, "h"), (-32768, "h"), (32768, "i"), (-32769, "i"),
    (-2 ** 31, "i"), (2 ** 31 - 1, "i"), (2 ** 31, "q"), (-2 ** 31 - 1, "q"),
    (2 ** 32 - 1, "q"), (-(2 ** 32 - 1), "q")]


def _first_pack_codes(monkeypatch):
    """The list each of `_det_packed`'s first packs from now on appends its
    struct code to."""
    codes = []

    def recorded(layout):
        codes.append(layout[1])
        return struct.Struct(layout)

    monkeypatch.setattr(packed, "Struct", recorded)
    return codes


def test_first_pack_at_code_boundaries(monkeypatch):
    # each boundary entry alone on an identity's diagonal, and in every
    # eighth row of a dense [-2, 2] matrix: the first pack takes the
    # narrowest code that holds it, in each of the four packed runs that
    # _dets_agree makes on a matrix: _bareiss_det, _det_packed with two
    # columns per pass on long rows and on every stage, and BasisMatrix's
    codes = _first_pack_codes(monkeypatch)
    rng = random.Random(31)
    for n in (_PACKED_FROM, _PACKED_FROM + 1, 32, 64):
        for value, code in CODE_BOUNDARIES:
            lone = [[int(i == j) for j in range(n)] for i in range(n)]
            lone[n // 2][n // 2] = value
            mixed = dense(rng, n, -2, 2)
            for row in mixed[::8]:
                row[rng.randrange(n)] = value
            codes.clear()
            assert _dets_agree(lone) == value
            _dets_agree(mixed)
            assert codes == [code] * 8, (n, value)


def test_first_pack_keeps_the_width_of_its_code(monkeypatch):
    # the n = 20 identity with one entry 2^20: Hadamard's bound asks for
    # 3-byte slots at every stage, but 2^20 needs the 4 bytes of i (h holds
    # up to 2^15 - 1), so every stage keeps 4-byte slots
    n = _PACKED_FROM
    rows = [[int(i == j) for j in range(n)] for i in range(n)]
    rows[3][3] = 2 ** 20
    bits = _minor_bits(rows)
    assert {bits[end + 1] // 8 + 1 for _, end in _stages(n)} == {3}
    assert [c for _, c in packed._CODES if 2 ** 20 < 1 << (8 * c - 1)][0] == 4
    codes = _first_pack_codes(monkeypatch)
    assert _dets_agree(rows) == 2 ** 20
    rows[3][0] = -1  # a negative entry in the 4-byte slots too
    assert _dets_agree(rows) == 2 ** 20
    assert codes == ["i"] * 8


def test_packed_kernel_takes_what_q_holds():
    # the widest code holds [-2^63, 2^63): the kernel packs both ends and
    # refuses an entry past them rather than pack it wrong
    n = _PACKED_FROM
    for value in (-2 ** 63, 2 ** 63 - 1, 2 ** 63):
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[0][0] = value
        if value < 2 ** 63:
            assert _det_packed(rows) == value
        else:
            with pytest.raises(struct.error):
                _det_packed(rows)


def test_det_kernel_choice(monkeypatch):
    # packed from _PACKED_FROM rows on, unless an entry reaches
    # _PACKED_BELOW in absolute value
    calls = {name: count_calls(monkeypatch, f"cubiquity.{module}", name)
             for module, name in (("lattice", "_det_entries"),
                                  ("packed", "_det_packed"))}
    big = _PACKED_BELOW - 1
    for n, corner, expected in [
            (_PACKED_FROM - 1, 1, "_det_entries"),
            (_PACKED_FROM, 1, "_det_packed"),
            (_PACKED_FROM, big, "_det_packed"),
            (_PACKED_FROM, -big, "_det_packed"),
            (_PACKED_FROM, big + 1, "_det_entries"),
            (_PACKED_FROM, -big - 1, "_det_entries"),
            (96, 1, "_det_packed")]:
        rows = [[int(i == j) for j in range(n)] for i in range(n)]
        rows[n - 1][0] = corner
        for seen in calls.values():
            seen.clear()
        assert _bareiss_det(rows) == 1
        assert {name: len(seen) for name, seen in calls.items()} == {
            name: int(name == expected) for name in calls}


def test_det_kernels_pin_the_sign_of_row_swaps():
    # the anti-diagonal forces a row swap at each of its first n // 2
    # steps: its det is (-1)^(n(n-1)/2) times the product of its entries
    for n in (1, 2, 3, 5, 7, _PACKED_FROM, 33, 64):
        rows = [[0] * n for _ in range(n)]
        for i in range(n):
            rows[i][n - 1 - i] = i + 2
        assert _dets_agree(rows) == \
            (-1) ** (n * (n - 1) // 2) * math.prod(range(2, n + 2))
    # zero leading entries, and a zero pivot again after some steps
    rng = random.Random(3)
    for n in (4, 6, 7, _PACKED_FROM, 40, 64):
        rows = dense(rng, n, -3, 3)
        for i in range(n // 2):
            rows[i][:i + 2] = [0] * min(i + 2, n)
        rows[n // 2], rows[n - 1] = rows[n - 1], rows[n // 2]
        _dets_agree(rows)


def _stages(n):
    """(first step, end) of each of `_det_packed`'s stages on an n x n
    matrix."""
    stages, k = [], 0
    while k < n - 1:
        end = min(k + max(k // 3, 6), n - 1)
        stages.append((k, end))
        k = end
    return stages


def _stage_steps(n):
    """The step counts of `_det_packed`'s stages on an n x n matrix."""
    return [end - k for k, end in _stages(n)]


def _pair_passes(rows):
    """The two-column passes `_det_packed` makes on rows, counted by
    tracing the line that starts each one."""
    lines, first = inspect.getsourcelines(_det_packed)
    target = first + next(i for i, line in enumerate(lines)
                          if "p0w = prev << w" in line)
    hits = []

    def local(frame, event, arg):
        if event == "line" and frame.f_lineno == target:
            hits.append(target)
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code is _det_packed.__code__ else None

    sys.settrace(tracer)
    try:
        _det_packed(rows)
    finally:
        sys.settrace(None)
    return len(hits)


def test_det_kernels_agree_at_every_size():
    # n = 1-96 covers _PACKED_FROM +- 1 and ends the packed kernel's last
    # stage at, before and after each stage boundary (steps 6, 12, 18, 24,
    # 32, 42, 56 and 74); every stage but the last has an even number of
    # steps, and the last is odd at some sizes, where the pair update ends
    # with a single step, and even at others
    rng = random.Random(16)
    sizes = range(1, 97)
    assert {_PACKED_FROM - 1, _PACKED_FROM, _PACKED_FROM + 1} <= set(sizes)
    assert all(s % 2 == 0 for n in sizes for s in _stage_steps(n)[:-1])
    assert {_stage_steps(n)[-1] % 2 for n in sizes if n > 1} == {0, 1}
    for n in sizes:
        span = 1 + n % 2
        _dets_agree(dense(rng, n, -span, span))


def test_pair_passes_run_on_long_rows_only(monkeypatch):
    # a stage pairs its steps where its rows take _PAIRS_FROM bytes: the
    # slot width its last minors need, times the live slots
    rng = random.Random(128)
    for n, bound in [(24, 2), (32, 2), (64, 2), (_PACKED_FROM, 2),
                     (_PACKED_FROM, _PACKED_BELOW - 1)]:
        rows = dense(rng, n, -bound, bound)
        bits = _minor_bits(rows)
        long_rows = [(n - k) * (bits[end + 1] // 8 + 1) >= _PAIRS_FROM
                     for k, end in _stages(n)]
        expected = sum((end - k) // 2 for (k, end), pair
                       in zip(_stages(n), long_rows) if pair)
        assert _pair_passes(rows) == expected
        # n = 24 pairs nowhere, n = 64 and wide entries from the start
        assert long_rows[0] == (n == 64 or bound > 2)
        assert any(long_rows) == (n != 24 and (n, bound) != (20, 2))
    monkeypatch.setattr(packed, "_PAIRS_FROM", 0)
    assert _pair_passes(dense(rng, 24, -2, 2)) == sum(
        steps // 2 for steps in _stage_steps(24))


# the pair-update tests run each input once per switch, so a failure names
# the one that broke: "every stage" pairs from _PAIRS_FROM = 0, so that
# small inputs reach every branch of the pair update too, and "long rows"
# keeps the default
pairs = pytest.mark.parametrize(
    "pairs", [(0,), (_PAIRS_FROM,)], ids=["every stage", "long rows"])


@pairs
def test_pair_update_swaps_in_the_second_pivot(pairs):
    # row k + 1 agrees with row k on columns 0 to k + 1, so its one-step
    # entry at column k + 1 is 0: the pair starting at step k must swap a
    # later row into second place, and flip the sign; the two rows differ
    # at column k + 2
    rng = random.Random(2)
    for n in (8, 21, 33, 48, 64):
        for k in range(0, n - 2, 6):
            rows = dense(rng, n, -2, 2)
            rows[k + 1][:k + 3] = rows[k][:k + 2] + [rows[k][k + 2] + 1]
            assert _dets_agree(rows, pairs) != 0


@pairs
def test_pair_update_dead_ends(pairs):
    # column d is a sum of earlier columns, so the pivot column is 0 in
    # every row at step d: pairs start at even steps, so an even d ends
    # the elimination at a pair's first pivot and an odd d at its second;
    # the last column is never a pivot column
    rng = random.Random(5)
    for n in (7, 21, 48, 64):
        for d in sorted({*range(0, n, 3), *range(1, n, 5), n - 1}):
            rows = dense(rng, n, -2, 2)
            for row in rows:
                row[d] = row[d - 1] + row[0] if d else 0
            assert _dets_agree(rows, pairs) == 0


@pairs
def test_pair_update_without_any_second_pivot(pairs):
    # column 1 is three times column 0, so after the first step every
    # row's entry at column 1 is 0: the first pair finds no second pivot
    rng = random.Random(6)
    for n in (3, 20, 64):
        rows = dense(rng, n, -2, 2)
        for row in rows:
            row[1] = 3 * row[0]
        assert _dets_agree(rows, pairs) == 0


@pairs
def test_pair_update_at_the_packed_bound(pairs):
    # the largest entries _bareiss_det packs: +-(_PACKED_BELOW - 1), alone
    # and mixed with small ones, on both sides of the pair switch
    rng = random.Random(16)
    big = _PACKED_BELOW - 1
    for n in (_PACKED_FROM, _PACKED_FROM + 1, 33, 48):
        signs = [[rng.choice((-big, big)) for _ in range(n)]
                 for _ in range(n)]
        mixed = dense(rng, n, -2, 2)
        for row in mixed:
            row[rng.randrange(n)] = rng.choice((-big, big))
        for rows in (signs, mixed):
            _dets_agree(rows, pairs)


@pytest.mark.parametrize("seed", [1, 2])
def test_pair_update_at_128_rows(seed):
    # ten stages, the last of them with 29 steps
    rng = random.Random(seed)
    assert _stage_steps(128)[-1] == 29
    assert _dets_agree(dense(rng, 128, -2, 2)) != 0


def test_pair_update_beats_one_step_at_96_rows():
    # the pair update saves one exact division per row and pair; at n = 96
    # it took 0.53-0.93x the one-step kernel's time (best of 3, on a host
    # whose timings vary by about 20%); the calls alternate, so a slow
    # spell of the host hits both kernels
    rows = dense(random.Random(96), 96, -2, 2)
    # the first stage's rows are long enough to pair
    assert 96 * (_minor_bits(rows)[7] // 8 + 1) >= _PAIRS_FROM
    best = {det_packed_reference: math.inf, _det_packed: math.inf}
    values = set()
    for _ in range(3):
        for kernel in best:
            start = time.perf_counter()
            values.add(kernel(rows))
            best[kernel] = min(best[kernel], time.perf_counter() - start)
    assert len(values) == 1
    assert best[_det_packed] < best[det_packed_reference]


def _greedy_det_inputs(n, rng):
    """(kind, rows) at size n: inputs on which the Hajos greedy, which
    gives the determinant below _PACKED_FROM rows, completes, stops
    partway or takes nothing."""
    twice = [[2 * a for a in row] for row in dense(rng, n, -3, 3)]
    big = dense(rng, n, -10 ** 25, 10 ** 25)
    chain_rows = chain(rng, n)
    yield "random", dense(rng, n, -3, 3)
    yield "25 digits", big
    yield "2 x 25 digits", [[2 * a for a in row] for row in big]
    yield "2 x dense", twice
    yield "chain", signed_mix(chain_rows, rng)
    yield "diag(4, 1, 2, ...)", signed_mix(lower(((4, 1) + (2,) * n)[:n]),
                                           rng)
    # the coordinates keep their order, so the greedy takes the 2s before
    # n // 2 in turn and stops at the pivot 6
    yield "pivot 6", mix(lower([6 if i == n // 2 else 2 for i in range(n)]),
                         rng, 2 * n)
    yield "anti-diagonal", [[(i + 2) * (j == n - 1 - i) for j in range(n)]
                            for i in range(n)]
    yield "anti-diagonal 2s", [
        [rng.choice((-2, 2)) * (j == n - 1 - i) for j in range(n)]
        for i in range(n)]


def _record_greedy(monkeypatch):
    """Wrap lattice._triangulate; returns the list each call appends its
    number of coordinates taken to."""
    seen = []

    def recorded(rows, *args):
        result = _triangulate(rows, *args)
        seen.append(len(result[1]))
        return result

    monkeypatch.setattr(lattice, "_triangulate", recorded)
    return seen


def test_greedy_det_matches_bareiss_at_every_size(monkeypatch):
    # below _PACKED_FROM rows the determinant is the signed product of the
    # greedy's pivots times the block left; the sign counts the row order
    # and the negated columns
    rng = random.Random(19)
    seen = _record_greedy(monkeypatch)
    taken = {}
    for n in range(1, _PACKED_FROM):
        for kind, rows in _greedy_det_inputs(n, rng):
            seen.clear()
            expected = _dets_agree(rows)  # 0 where a small one is singular
            if kind in ("chain", "pivot 6"):
                assert abs(expected) == 2 ** n * (3 if kind == "pivot 6"
                                                  else 1)
            taken[kind, n] = seen[0] if seen else None
    for n in range(1, _PACKED_FROM):
        # the greedy completes on chains, and the anti-diagonal of 2s has
        # the sign of its row order to get right
        assert taken["chain", n] == taken["anti-diagonal 2s", n] == n
        # it takes the 2s before the 6 and stops there
        assert taken["pivot 6", n] == n // 2
    # it takes nothing where no row qualifies, and it stops partway
    # leaving blocks of many sizes
    assert taken["25 digits", _PACKED_FROM - 1] == 0
    assert {n - t for (_, n), t in taken.items() if 0 < t < n} >= \
        set(range(1, 10))


@pytest.mark.parametrize("kind", ["equal rows", "zero column", "rank n-1"])
def test_greedy_det_singular_raises_with_dimension_message(kind,
                                                           monkeypatch):
    # even entries, some 2 mod 4: the greedy runs, and a singular matrix
    # reaches the check through the block its dead end leaves
    rng = random.Random(23)
    seen = _record_greedy(monkeypatch)
    for n in range(1 if kind == "zero column" else 2, _PACKED_FROM):
        rows = [[2 * a for a in row] for row in dense(rng, n, -3, 3)]
        rows[0][0] = 2
        if kind == "equal rows":
            rows[n - 1] = list(rows[0])
        elif kind == "zero column":
            for row in rows:
                row[n // 2] = 0
        else:
            rows[n - 1] = [a - 2 * b for a, b in zip(rows[0], rows[n - 2])]
        assert _dets_agree(rows) == 0
    assert len(seen) >= _PACKED_FROM - 3


def test_greedy_det_settles_the_triangle_as_the_property_would():
    # the det's greedy sets _triangle where its elimination settles it,
    # without the property's own run; where it leaves it unset (a power
    # of two below 2^n, or the swap cap at 2^n) it keeps the state it
    # stopped in, which the property resumes on first use, and everywhere
    # the form is the one a run from the rows gives
    rng = random.Random(26)
    outcomes = set()
    stops = set()
    for n in range(2, 10):
        inputs = [rows for _, rows in _greedy_det_inputs(n, rng)]
        inputs.append(signed_mix(
            lower([1 if i == n // 2 else 2 for i in range(n)]), rng))
        # about 3n additions of large multiples (one step in five
        # negates): clearing a coordinate can take more than _EUCLID_SWAPS
        # swaps
        inputs.append(mix(chain(rng, n), rng, 4 * n, 10 ** 6))
        for rows in inputs:
            try:
                b = BasisMatrix(rows)
            except SingularMatrix:
                continue
            d = abs(b.det)
            settled = "_triangle" in vars(b)
            if settled:
                assert "_stopped" not in vars(b), rows
            else:
                assert d & d - 1 == 0 and d <= 2 ** n, rows
                # where it stopped: no coordinate of gcd 2 left, or one
                # that the swap cap left half cleared
                cols, order, rest, _ = b._stopped
                stops.add(_hajos_pick(cols[len(order):], rest) is None)
            fresh = fresh_triangle(b)
            assert b._triangle == fresh, rows
            assert "_stopped" not in vars(b)
            outcomes.add((settled, d == 2 ** n, fresh is not None))
    assert outcomes == {(True, True, True), (True, True, False),
                        (True, False, False), (False, False, True),
                        (False, True, True)}
    assert stops == {True, False}


def _best_time(f, rows):
    """f(rows) and its least time in seconds over three calls."""
    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        value = f(rows)
        best = min(best, time.perf_counter() - start)
    return value, best


def test_greedy_det_time_at_19_rows():
    # the last size below _PACKED_FROM, where the greedy runs first: on
    # 2 x (dense) input it stops early, on a mixed chain it completes
    rng = random.Random(1919)
    n = _PACKED_FROM - 1
    twice = [[2 * a for a in row] for row in dense(rng, n, -3, 3)]
    mixed = signed_permutation(mix(chain(rng, n), rng, 64, 1), rng)
    assert abs(_det_entries(mixed)) == 2 ** n
    for rows in (twice, mixed):
        b, best = _best_time(BasisMatrix, rows)
        assert b.det == _det_entries(rows)
        assert best < 0.02


@pytest.mark.parametrize("bound", [10 ** 4, 10 ** 8])
def test_greedy_det_time_on_large_even_entries(bound):
    # large even entries: the column Euclid needs many swaps per step, and
    # past _EUCLID_SWAPS the block left goes to Bareiss, so the det costs
    # about what _det_entries does (without the cap, 3-6 times as much)
    rng = random.Random(bound)
    n = _PACKED_FROM - 1
    rows = [[2 * a for a in row] for row in dense(rng, n, -bound, bound)]
    b, greedy = _best_time(BasisMatrix, rows)
    expected, bareiss = _best_time(_det_entries, rows)
    assert b.det == expected
    assert greedy < 3 * bareiss


def test_hnf_mixed_chain_n48():
    # the column Euclid keeps entries near the input's size; extended-gcd
    # steps took seconds on mixed chains at n = 32 and did not finish in
    # 30 s at n = 48
    rng = random.Random(48)
    b = BasisMatrix(signed_permutation(mix(chain(rng, 48), rng, 64, 1), rng))
    start = time.perf_counter()
    h = b.hnf
    assert time.perf_counter() - start < 1
    _hnf_agrees(b, reference=False)
    assert h.det == 2 ** 48
    assert all(contains(b, col) for col in b.columns)


@pytest.mark.parametrize("kind", [
    "equal rows", "zero column", "zero last column", "rank n-1"])
def test_singular_dense_64_raises_with_dimension_message(kind):
    # a zero column stops the elimination at its step; the last column is
    # never a pivot column, so there the elimination runs to the end
    rng = random.Random(64)
    n = 64
    rows = dense(rng, n, -2, 2)
    if kind == "equal rows":
        rows[41] = list(rows[7])
    elif kind.startswith("zero"):
        for row in rows:
            row[n - 1 if "last" in kind else 30] = 0
    else:
        rows[63] = [a + 2 * b - c
                    for a, b, c in zip(rows[0], rows[1], rows[50])]
    assert _dets_agree(rows) == 0


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


def test_hnf_same_point_set_small_boxes():
    rng = random.Random(11)
    bases = [BasisMatrix([[1, -1], [1, 1]])]  # index 2, not a diagonal one
    for n in (2, 3):
        bases += [BasisMatrix(nonsingular(rng, n, -3, 3)) for _ in range(8)]
    for b in bases:
        h = hnf(b)
        member = membership_reference(b)
        for x in itertools.product(range(-5, 6), repeat=b.n):
            assert contains(b, x) == contains(h, x) == member(x)


def _hnf_agrees(b, reference=True):
    """b's Hermite form, after checking that `_hnf`, the cached `b.hnf`,
    the public `hnf` and `hnf_reference` give it; that it has the form's
    shape, a positive diagonal with entries in [0, diagonal) left of it and
    zeros right of it; and that its det, the product of its diagonal, is
    |det b| and the det `BasisMatrix` computes from its rows.  With
    ``reference=False`` the reference does not run: on row-permuted mixed
    chains its extended-gcd steps did not finish in 30 s at n = 48.  A new
    Hermite path joins here, so every input below runs it."""
    h = _hnf(b)
    assert h == b.hnf == hnf(b), b
    assert not reference or h == hnf_reference(b), b
    for i, row in enumerate(h.rows):
        assert row[i] > 0 and not any(row[i + 1:]), b
        assert all(0 <= a < row[i] for a in row[:i]), b
    assert h.det == abs(b.det) == BasisMatrix(h.rows).det, b
    return h


def _small_hnf_cases():
    # every small HNF, and for n >= 2 a mixed basis of the same lattice
    rng = random.Random(29)
    for n in (1, 2, 3):
        for rows in hnf_rows(n, range(1, 2 ** n + 9)):
            yield BasisMatrix(rows)
            if n > 1:
                yield BasisMatrix(mix(rows, rng, 3 * n))


def _mixed_hnf_cases():
    rng = random.Random(31)
    for n in range(4, 13):
        for _ in range(12):
            d = rng.choice((rng.randint(1, 2 ** n + 8), 2 ** n))
            yield BasisMatrix(mix(random_hnf(rng, n, d), rng, 3 * n))


def _nonsingular_hnf_cases():
    rng = random.Random(7)
    for n in (1, 2, 3, 4):
        for _ in range(30):
            yield BasisMatrix(nonsingular(rng, n, -5, 5))


def _n64_hnf_case():
    # a lower-triangular basis with diagonal entries 1-3, mixed
    rng = random.Random(64)
    n = 64
    rows = lower([rng.randint(1, 3) for _ in range(n)],
                 lambda i, j: rng.randrange(4))
    return [BasisMatrix(mix(rows, rng, 2 * n))]


@pytest.mark.parametrize("cases", [_small_hnf_cases, _mixed_hnf_cases,
                                   _nonsingular_hnf_cases, _n64_hnf_case],
                         ids=["n1-3", "n4-12", "nonsingular", "n64"])
def test_hnf_matches_reference(cases):
    checked = 0
    for b in cases():
        _hnf_agrees(b)
        checked += 1
    assert checked > 0


def _unit_pivot_bases():
    """Shapes whose relations have unit coefficients, so that the Smith
    elimination takes unit pivots before the others."""
    rng = random.Random(1)
    # 0/1 below the diagonal (2, 2, 2, 2, 1, 2, 2, 2, 2), then a 3; under
    # coordinate reflections alone the HNF keeps that diagonal
    rows = lower([2] * 4 + [1] + [2] * 4 + [3],
                 lambda i, j: rng.randint(0, 1) * (i < 9))
    yield BasisMatrix(mix([[rng.choice((-1, 1)) * v for v in row]
                           for row in rows], rng, 20))
    yield BasisMatrix(signed_mix(rows, rng))
    # cyclic of index 3 * 2^16 at n = 19: x_19 = sum 2^k x_{k+1} mod N
    c = [-(2 ** k) for k in range(16)] + [0, 0, 1]
    yield BasisMatrix(mix(cyclic(c, 3 * 2 ** 16), random.Random(19), 38))
    # Z/2 x Z/16 x Z/96 beside d_k = 1 rows
    yield BasisMatrix(signed_mix(lower([2, 16, 96] + [1] * 5), rng))


def _presentation_edge_bases():
    """Edge cases of the presentation modulo N = |det|: no unit entry,
    every entry a unit, N = 1, n = 1, and 25-digit entries."""
    for n in range(1, 5):
        yield BasisMatrix(lower([2] * n))  # 2 I_n: no unit mod 2^n
        yield BasisMatrix(lower([1] * n))  # N = 1
    yield BasisMatrix([[4, 0, 0], [0, 4, 0], [0, 0, 12]])  # no unit mod 192
    # every entry a unit: mod 5, mod 23 and mod 4
    yield BasisMatrix([[1, 2], [3, 1]])
    yield BasisMatrix([[3, 5], [7, 4]])
    yield BasisMatrix([[1, 1, 1], [1, -1, 1], [1, 1, -1]])
    # N = 1, mixed
    yield BasisMatrix(mix(lower([1] * 5), random.Random(3), 15))
    for d in (1, 2, -7, 12):
        yield BasisMatrix([[d]])
    big = 10 ** 24 + 7
    yield BasisMatrix([[2, 0, 0], [big, 3, 0], [-3 * big, big + 1, 4]])
    cols = [[2, 0, 0], [0, 6, 0], [0, 0, 4]]
    cols[1] = [a + big * b for a, b in zip(cols[1], cols[0])]
    cols[2] = [a - big * b for a, b in zip(cols[2], cols[1])]
    cols[0] = [a + (big + 2) * b for a, b in zip(cols[0], cols[2])]
    yield BasisMatrix.from_columns(cols)


def test_presentation_edge_bases_reach_their_cases():
    bases = list(_presentation_edge_bases())
    assert any(b.n > 1 and all(math.gcd(a, abs(b.det)) > 1
                               for row in b.rows for a in row)
               for b in bases)
    assert any(abs(b.det) > 1 and all(math.gcd(a, abs(b.det)) == 1
                                      for row in b.rows for a in row)
               for b in bases)
    assert any(abs(b.det) == 1 for b in bases)
    assert any(b.n == 1 for b in bases)
    assert any(len(str(abs(a))) >= 25 for b in bases
               for row in b.rows for a in row)


def _tietze_cases():
    """The `scan` plan inputs of seeds 1-3 and the presentation's shapes:
    N = 1, a cyclic quotient and a core of 6 generators."""
    for seed in (1, 2, 3):
        for case in bench_plan("scan", seed):
            yield BasisMatrix(case.rows)
    yield BasisMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])  # N = 1
    # Z/360, cyclic: the first relation solves e_1 and leaves one
    yield BasisMatrix(mix([[1, 0, 0], [5, 1, 0], [7, 11, 360]],
                          random.Random(5), 9))
    # every entry even, so none is a unit modulo N = 1920 and all six
    # generators stay live into the Smith elimination
    yield BasisMatrix(mix(lower([2, 2, 2, 4, 6, 10]), random.Random(6), 18))


def test_diagonalize_matches_tietze_reference():
    # and the presentation is one: the images satisfy every relation that
    # a basis column gives, and take the |det| points of the HNF box to
    # |det| distinct elements of a group of order |det|
    shapes = set()
    for b in itertools.chain(_tietze_cases(), _small_hnf_cases(),
                             _mixed_hnf_cases(),
                             _unit_pivot_bases(), _presentation_edge_bases()):
        moduli, images = _diagonalize(b)
        assert (moduli, images) == diagonalize_tietze_reference(b), b
        shapes.add(len(moduli))
        n = b.n
        assert all(m > 1 for m in moduli)
        assert math.prod(moduli) == abs(b.det), b
        # the rotations of the cover read the images as residues
        assert all(0 <= images[k][c] < m for k in range(n)
                   for c, m in enumerate(moduli)), b
        for col in b.columns:
            assert all(sum(a * image[c] for a, image in zip(col, images))
                       % m == 0 for c, m in enumerate(moduli)), b
        seen = {tuple(sum(x[k] * images[k][c] for k in range(n)) % m
                      for c, m in enumerate(moduli))
                for x in hnf_box(b)}
        assert len(seen) == abs(b.det), b
    assert shapes >= {0, 1, 2, 3, 4, 6}


@pytest.mark.parametrize("order", [[-1, 0], [5, 0], [0, 0], [0], [0, 1, 2]])
def test_permute_rows_rejects_non_permutations(order):
    with pytest.raises(DimensionMismatch):
        BasisMatrix([[1, 2], [3, 4]]).permute_rows(order)


def test_hnf_unique_for_fixed_row_order():
    rng = random.Random(13)
    for _ in range(25):
        b = BasisMatrix(nonsingular(rng, 3, -4, 4))
        # Unimodular recombination of the columns spans the same lattice.
        c = list(list(col) for col in b.columns)
        c[0] = [u + 2 * v for u, v in zip(c[0], c[1])]
        c[2] = [u - v for u, v in zip(c[2], c[0])]
        assert _hnf_agrees(BasisMatrix.from_columns(c)) == _hnf_agrees(b)


def test_contains_examples():
    b = BasisMatrix([[2, 0], [0, 2]])
    assert contains(b, (2, -4)) is True
    assert contains(b, (1, 0)) is False
    first, _ = catalog_blocks()
    assert contains(first, (-2, 1, 1, 1, 1, 1, 1, 1)) is False
    with pytest.raises(DimensionMismatch):
        contains(b, (1, 2, 3))


@pytest.mark.parametrize("x", [(2.0, 0), ("2", 0)])
def test_contains_rejects_non_integers(x):
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        contains(BasisMatrix([[2, 0], [0, 2]]), x)


def test_contains_every_lattice_combination():
    rng = random.Random(17)
    for n in (1, 2, 3, 4):
        b = BasisMatrix(nonsingular(rng, n, -3, 3))
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
    for rows in hnf_rows(2, (6,)) + hnf_rows(3, (4,)):
        b = BasisMatrix(rows)
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
        b1 = BasisMatrix(nonsingular(rng, 2, -4, 4))
        b2 = BasisMatrix(nonsingular(rng, 2, -4, 4))
        assert det(direct_sum(b1, b2)) == det(b1) * det(b2)
