import ast
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import jsonschema
import pytest

from cubiquity import (
    BasisMatrix,
    CubiquityVerdict,
    HajosBasis,
    MatrixFormatError,
    Status,
    Subset,
    _commands,
    cli,
    hajos_basis,
    parse_inline,
    parse_matrix,
)
from cubiquity.classify import HYPER_2X2, OTHER, TWO_TIMES, UNIT
from cubiquity.cli import run
from cubiquity.lattice import _PACKED_FROM, _det_entries
from cubiquity.transforms import CONTRACTION, DOUBLE_PROJECTION, PROJECTION
from helpers import (
    count_calls,
    hajos_permutation_scan,
    orthogonal_block_sum,
    reduce_lines_reference,
    signed_permutation,
    unimodular_mix,
)

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" /
     "verdict.schema.json").read_text())


def _run(capsys, *argv):
    code = run(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_not_cubiquitous(tmp_path, capsys):
    path = tmp_path / "m.txt"
    path.write_text("# three\n1\n3\n")
    code, out, err = _run(capsys, "check", str(path))
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "Obstructed"
    jsonschema.validate(payload, SCHEMA)
    assert err == ""


def test_check_cubiquitous_inline(capsys):
    code, out, _ = _run(capsys, "check", "--matrix", "2 0; 0 2")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Cubiquitous"
    assert payload["hajos_basis"] == [[2, 0], [0, 2]]
    jsonschema.validate(payload, SCHEMA)


def test_check_bruteforce_path(capsys):
    # det = 1 < 2^n, so the determinant gate is inconclusive and the
    # brute-force oracle settles it
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 1")
    assert code == 0
    assert json.loads(out)["status"] == "Cubiquitous"

    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "NotCubiquitous"
    assert payload["witness"] == [0, 1]
    jsonschema.validate(payload, SCHEMA)


def test_check_det_gate_negative(capsys):
    # det = 2^n without a Hajos basis is settled by the gate alone
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 4")
    assert code == 1
    payload = json.loads(out)
    assert payload["status"] == "NotCubiquitous"
    assert payload["witness"] is None


@pytest.mark.parametrize("n, lhs", [
    (48, 13571866880261183541136436649128303416),
    (64, 17942435594948708470105223757482945838172794952643972),
])
def test_check_dense_det_gate_on_packed_rows(n, lhs, capsys):
    # check computes |det| of these seeded matrices on packed rows; the
    # pinned line is the one the per-entry kernel gives
    rng = random.Random(n)
    rows = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
    text = "; ".join(" ".join(map(str, row)) for row in rows)
    code, out, err = _run(capsys, "check", "--matrix", text)
    assert code == 1 and err == ""
    assert abs(_det_entries(rows)) == lhs
    assert out == (
        '{"status": "Obstructed", "witness": null, "inequality": '
        f'{{"lhs": {lhs}, "rhs": {2 ** n}}}, "hajos_basis": null}}\n')
    jsonschema.validate(json.loads(out), SCHEMA)


def test_check_cap_inconclusive(capsys):
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3",
                        "--cap", "1")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_check_cap_env_var(capsys, monkeypatch):
    monkeypatch.setenv("CUBIQUITY_RESOURCE_CAP", "1")
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_check_cap_env_var_invalid(capsys, monkeypatch):
    monkeypatch.setenv("CUBIQUITY_RESOURCE_CAP", "abc")
    code, out, err = _run(capsys, "check", "--matrix", "1 0; 0 3")
    assert code == 64
    assert out == ""
    assert err.startswith("error: ")


def test_check_cap_boundary(capsys):
    # brute force on Z + 3Z costs n * |det| = 6 steps
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3",
                        "--cap", "6")
    assert code == 1
    assert json.loads(out)["witness"] == [0, 1]
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3",
                        "--cap", "5")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_check_decides_past_old_vertex_cap(capsys):
    # index 3 * 2^10 at n = 13: |det| * 2^n is past the default cap of
    # 2^24, n * |det| is not
    diag = [6] + [2] * 9 + [1] * 3
    matrix = "; ".join(" ".join(str(d if i == j else 0) for j in range(13))
                       for i, d in enumerate(diag))
    code, out, _ = _run(capsys, "check", "--matrix", matrix)
    assert code == 1
    assert json.loads(out)["witness"] == [1] + [0] * 12


def test_check_decides_past_old_exponential_cap(capsys):
    # diag(3, 1, ..., 1) at n = 20: n * |det| = 60, while the former count
    # n * (2^n + |det|) was past the default cap of 2^24
    matrix = "; ".join(" ".join(str(3 if i == j == 0 else int(i == j))
                                for j in range(20)) for i in range(20))
    assert _run(capsys, "check", "--matrix", matrix) == (
        1, '{"status": "NotCubiquitous", "witness": [1' + ', 0' * 19
        + '], "inequality": null, "hajos_basis": null}\n', "")
    code, out, _ = _run(capsys, "check", "--matrix", matrix, "--cap", "59")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


CERTIFIED = ('{"status": "Cubiquitous", "witness": null, "inequality": '
             'null, "hajos_basis": null}\n')


def _block_diagonal_text(block, count):
    size = len(block)
    n = size * count
    return "; ".join(
        " ".join(str(block[i % size][j % size] if i // size == j // size
                     else 0) for j in range(n))
        for i in range(n))


@pytest.mark.parametrize("matrix, cap", [
    ("1 0; 0 2", ["--cap", "1"]),
    (_block_diagonal_text([[1]], 20), []),
    (_block_diagonal_text([[1, 1], [1, -1]], 32), []),
], ids=["1 0; 0 2", "identity 20", "hyperbolic pairs 64"])
def test_check_certifies_a_1_2_triangle_past_the_cap(matrix, cap, capsys):
    # a power-of-two index below 2^n whose greedy triangle has 1s and 2s on
    # its diagonal is cubiquitous without brute force, so the cap that
    # meters brute force does not apply: these exited 2 before
    start = time.perf_counter()
    assert _run(capsys, "check", "--matrix", matrix, *cap) == \
        (0, CERTIFIED, "")
    assert time.perf_counter() - start < 2


def test_check_certificate_leaves_the_witness_to_bruteforce(capsys):
    # index 4 < 2^3, but the greedy stops at the 4: brute force decides,
    # with the first witness, and the cap refuses it as before
    code, out, _ = _run(capsys, "check", "--matrix", "4 0 0; 0 1 0; 0 0 1")
    assert code == 1
    assert json.loads(out)["witness"] == [1, 0, 0]
    code, out, _ = _run(capsys, "check", "--matrix", "4 0 0; 0 1 0; 0 0 1",
                        "--cap", "1")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_check_rows_as_vectors(capsys):
    # rows (1,2), (0,3) span {y = 2x mod 3}, which hits every unit square;
    # the columns (1,0), (2,3) span Z + 3Z, which does not
    code, out, _ = _run(capsys, "check", "--matrix", "1 2; 0 3",
                        "--rows-as-vectors")
    assert code == 0
    assert json.loads(out)["status"] == "Cubiquitous"
    code, out, _ = _run(capsys, "check", "--matrix", "1 2; 0 3")
    assert code == 1
    assert json.loads(out)["status"] == "NotCubiquitous"


@pytest.mark.parametrize("text", ["2\n1 x\n2 3", "2\n1 1.0\n2 3"])
def test_bad_token_keeps_its_message(text, capsys):
    with pytest.raises(MatrixFormatError) as exc:
        parse_matrix(text)
    row = text.splitlines()[1]
    assert str(exc.value) == f"bad matrix row {row!r}"
    code, out, err = _run(capsys, "stats", "--matrix", row + "; 2 3")
    assert (code, out, err) == (65, "", f"error: bad matrix row {row!r}\n")


def test_rows_as_vectors_transposes_into_the_same_subset():
    rows = "1 1 0; 1 -1 0; 0 3 2"
    as_rows = _commands._read_subset(cli._parser().parse_args(
        ["stats", "--matrix", rows, "--rows-as-vectors"]))
    as_columns = _commands._read_subset(cli._parser().parse_args(
        ["stats", "--matrix", rows]))
    assert as_rows == Subset([(1, 1, 0), (1, -1, 0), (0, 3, 2)])
    assert as_columns == Subset([(1, 1, 0), (1, -1, 3), (0, 0, 2)])
    assert parse_matrix("3\n1 1 0\n1 -1 0\n0 3 2", True) == \
        ((1, 1, 0), (1, -1, 3), (0, 0, 2))


@pytest.mark.parametrize("source", ["inline", "file"])
@pytest.mark.parametrize("rows_as_vectors", [False, True])
def test_read_subset_equals_the_checked_subset(source, rows_as_vectors,
                                               tmp_path):
    rows = ["+2 007 -0", "1_0 -256 255", "0 1000000000000000000000001 -3"]
    values = [[2, 7, 0], [10, -256, 255], [0, 10 ** 24 + 1, -3]]
    if source == "inline":
        argv = ["stats", "--matrix", "; ".join(rows)]
    else:
        path = tmp_path / "m.txt"
        path.write_text("# a subset\n3\n" + "\n".join(rows) + "\n")
        argv = ["stats", str(path)]
    if rows_as_vectors:
        argv.append("--rows-as-vectors")
    subset = _commands._read_subset(cli._parser().parse_args(argv))
    columns = values if rows_as_vectors else list(zip(*values))
    assert subset == Subset(columns)
    assert all(type(x) is int for v in subset.vectors for x in v)
    assert all(type(v) is tuple for v in subset.vectors)


@pytest.mark.parametrize("command", [
    ["wu"], ["stats"], ["classify"], ["reduce"],
    ["contract", "-i", "1", "--vectors", "1", "2", "3"],
])
@pytest.mark.parametrize("text, message", [
    ("1 0 0; 0 1", "row '1 0 0' has 3 entries, expected 2"),
    ("1 0; 0 1 2", "row '0 1 2' has 3 entries, expected 2"),
    ("1 0; 0 x", "bad matrix row '0 x'"),
    ("1 0; 0 0x1", "bad matrix row '0 0x1'"),
])
def test_subset_commands_refuse_bad_input(command, text, message, capsys):
    assert _run(capsys, *command, "--matrix", text) == (
        65, "", f"error: {message}\n")


@pytest.mark.parametrize("command, module, name", [
    ("classify", "cubiquity.classify", "decompose"),
    ("classify", "cubiquity.classify", "is_orthogonal"),
    ("classify", "cubiquity.subsets", "_supports"),
    ("reduce", "cubiquity.transforms", "is_orthogonal"),
    ("reduce", "cubiquity.subsets", "_supports"),
    ("stats", "cubiquity.subsets", "stats"),
    ("stats", "cubiquity.subsets", "_supports"),
    ("wu", "cubiquity.obstructions", "wu_element"),
    ("wu", "cubiquity.subsets", "is_non_acute"),
    ("wu", "cubiquity.subsets", "_supports"),
])
def test_subcommand_does_its_work_once(command, module, name, monkeypatch,
                                       capsys):
    argv = (command, "--matrix", "1 1 0; 1 -1 0; 0 0 2")
    expected = _run(capsys, *argv)
    calls = count_calls(monkeypatch, module, name)
    assert _run(capsys, *argv) == expected
    assert expected[0] in (0, 2) and expected[2] == ""
    assert len(calls) == 1


def _matrix_text(rows):
    return "; ".join(" ".join(map(str, row)) for row in rows)


@pytest.mark.parametrize("command", ["check", "hajos"])
def test_index_2n_below_20_rows_is_eliminated_once(command, monkeypatch,
                                                    capsys):
    # below _PACKED_FROM rows the basis takes its determinant from the Hajos
    # greedy, and a completed greedy is the certificate: no Bareiss pass
    # and no second elimination
    rng = random.Random(20)
    for n in (1, 2, 8, _PACKED_FROM - 1):
        chain = BasisMatrix([[2 if j == i else rng.randrange(2) if j < i
                              else 0 for j in range(n)] for i in range(n)])
        mixed = unimodular_mix(chain, rng, 2 * n) if n > 1 else chain
        cols = signed_permutation(list(mixed.columns), rng)
        text = _matrix_text(zip(*cols))
        expected = _run(capsys, command, "--matrix", text)
        assert expected[0] == 0 and expected[2] == ""
        calls = {name: count_calls(monkeypatch, f"cubiquity.{module}", name)
                 for module, name in (("lattice", "_triangulate"),
                                      ("lattice", "_det_entries"),
                                      ("packed", "_det_packed"))}
        assert _run(capsys, command, "--matrix", text) == expected
        assert {name: len(seen) for name, seen in calls.items()} == {
            "_triangulate": 1, "_det_entries": 0, "_det_packed": 0}, n
        monkeypatch.undo()


@pytest.mark.parametrize("command", ["check", "hajos"])
def test_twice_dense_n48_is_fast(command, monkeypatch, capsys):
    # from _PACKED_FROM rows on the packed Bareiss kernel runs first and the
    # greedy only at |det| = 2^n; a greedy first took minutes here with
    # extended-gcd steps
    rng = random.Random(48)
    n = 48
    text = _matrix_text([[2 * rng.randint(-3, 3) for _ in range(n)]
                         for _ in range(n)])
    calls = {name: count_calls(monkeypatch, f"cubiquity.{module}", name)
             for module, name in (("lattice", "_triangulate"),
                                  ("packed", "_det_packed"))}
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        code, out, err = _run(capsys, command, "--matrix", text)
        best = min(best, time.perf_counter() - start)
    assert {name: len(seen) for name, seen in calls.items()} == {
        "_triangulate": 0, "_det_packed": 3}
    assert code == 1 and err == ""
    if command == "check":
        assert json.loads(out)["status"] == "Obstructed"
    else:
        assert out == '{"hajos_basis": null, "row_order": null}\n'
    assert best < 0.1


def test_stats_computes_norms_once(monkeypatch, capsys):
    norms = Subset.norms
    calls = []

    def counted(subset):
        calls.append(subset)
        return norms.fget(subset)

    monkeypatch.setattr(Subset, "norms", property(counted))
    code, out, _ = _run(capsys, "stats", "--matrix", "1 0 -1; 1 -1 1; 0 3 0")
    assert code == 0
    assert json.loads(out)["norms"] == [2, 10, 2]
    assert len(calls) == 1


def test_wu_matches_contract_example(capsys):
    code, out, _ = _run(capsys, "wu", "--matrix", "3")
    assert code == 1
    assert out == ('{"W": [3], "R_o": [1], "lhs": 9, "rhs": 1, '
                   '"status": "Obstructed"}\n')


def test_wu_inconclusive_exit(capsys):
    code, out, _ = _run(capsys, "wu", "--matrix", "1 1; 1 -1")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_wu_rejects_acute_subset(capsys):
    code, out, err = _run(capsys, "wu", "--matrix", "1 1; 1 0")
    assert code == 65
    assert out == ""
    assert "error" in err


def test_stats_json(capsys):
    code, out, _ = _run(capsys, "stats", "--matrix", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["excess"] == 6
    assert payload["counts"] == [0, 1]
    assert payload["heavy"] == [[], [1]]
    assert payload["identity_holds"] is True


def test_hajos_json_and_exit(capsys):
    code, out, _ = _run(capsys, "hajos", "--matrix", "2 0; 0 2")
    assert code == 0
    payload = json.loads(out)
    assert payload["hajos_basis"] == [[2, 0], [0, 2]]
    assert payload["row_order"] == [1, 2]

    code, out, _ = _run(capsys, "hajos", "--matrix", "1 0; 0 4")
    assert code == 1
    assert json.loads(out)["hajos_basis"] is None


def test_hajos_text_round_trip(capsys):
    code, out, _ = _run(capsys, "hajos", "--matrix", "2 0; 1 2",
                        "--format", "text")
    assert code == 0
    assert parse_matrix(out) == ((2, 0), (1, 2))


@pytest.mark.parametrize("argv, code, out", [
    (("check", "--matrix", "2 2 0; 0 2 2; 0 0 2"), 0,
     "# status: Cubiquitous\n# hajos basis, row order 1 2 3\n"
     "3\n2 0 0\n0 2 0\n0 0 2\n"),
    (("hajos", "--matrix", "2 2 0; 0 2 2; 0 0 2"), 0,
     "# hajos basis, row order 1 2 3\n3\n2 0 0\n0 2 0\n0 0 2\n"),
    (("hajos", "--matrix", "1 0; 2 4"), 0,
     "# hajos basis, row order 2 1\n2\n2 0\n1 2\n"),
    (("hajos", "--matrix", "1 0; 0 4"), 1, "# absent\n"),
])
def test_hajos_text_output(capsys, argv, code, out):
    # a mixed basis of diag(2, 2, 2), a Hajos order other than the
    # identity, and an index-2^n lattice with no Hajos basis
    assert _run(capsys, *argv, "--format", "text") == (code, out, "")


def test_classify_json(capsys):
    code, out, _ = _run(capsys, "classify", "--matrix",
                        "1 0 0; 0 2 0; 0 0 3")
    assert code == 1
    payload = json.loads(out)
    assert [b["kind"] for b in payload["blocks"]] == \
        ["Unit", "TwoTimes", "Other"]
    assert payload["verdict"]["status"] == "NotCubiquitous"
    jsonschema.validate(payload["verdict"], SCHEMA)

    code, _, err = _run(capsys, "classify", "--matrix", "1 1; 0 1")
    assert code == 65
    assert "error" in err


def test_torus_exit_codes(capsys):
    code, out, _ = _run(capsys, "torus", "--", "-4", "-4")
    assert code == 0
    assert out == "bounds: true\n"

    code, out, _ = _run(capsys, "torus", "--", "-2", "-4")
    assert code == 1
    assert out == "bounds: false\n"

    code, out, _ = _run(capsys, "torus", "--format", "json", "--", "-2",
                        "-2")
    assert code == 0
    assert json.loads(out) == {"bounds": True}

    code, _, err = _run(capsys, "torus", "--", "-2", "2")
    assert code == 65
    assert "error" in err


def test_reduce_step_log(capsys):
    code, out, _ = _run(capsys, "reduce", "--matrix",
                        "1 1 0 0; 1 -1 0 0; 0 0 2 0; 0 0 0 1")
    assert code == 0
    lines = [json.loads(line) for line in out.splitlines()]
    assert [ln["kind"] for ln in lines] == \
        ["Projection", "Projection", "DoubleProjection", "Reduced"]
    assert lines[-1]["result"] == []
    # indices are 1-based in the log
    assert lines[0]["vectors"] == [3]
    assert lines[0]["coordinates"] == [3]


WIDE = 10 ** 24 + 1  # 25 digits, outside the reader's table


def _spell(x, rng):
    """A token int() reads as x: plain, with a plus sign or leading zeros,
    or '-0' for zero."""
    plain = str(x)
    if x == 0:
        return rng.choice((plain, "-0", "+0", "000"))
    if x > 0:
        return rng.choice((plain, "+" + plain, "00" + plain))
    return rng.choice((plain, "-00" + plain[1:]))


def _reduce_argvs(subset, rng):
    """reduce argv for the subset as columns, and as rows with
    --rows-as-vectors, every entry spelled by _spell."""
    for rows_as_vectors in (False, True):
        rows = subset.vectors if rows_as_vectors else zip(*subset.vectors)
        text = "; ".join(" ".join(_spell(x, rng) for x in row)
                         for row in rows)
        yield ["reduce", "--matrix", text] + (
            ["--rows-as-vectors"] if rows_as_vectors else [])


def test_reduce_lines_match_reference(capsys):
    # the CLI renders every entry from the parsed ints, so its bytes are
    # the json.dumps lines of the reference trace
    rng = random.Random(89)
    subsets = [orthogonal_block_sum(n, rng) for n in range(1, 97)]
    # whole vectors scaled by +-WIDE stay orthogonal; a scaled pair is no
    # longer hyperbolic, so wide entries reach the Reduced line too
    for n in (3, 7, 12, 24):
        s = orthogonal_block_sum(n, rng)
        factors = [rng.choice((1, WIDE, -WIDE)) for _ in range(n)]
        subsets.append(Subset(tuple(c * x for x in v)
                              for c, v in zip(factors, s.vectors)))
    subsets.append(Subset([(2, 0, 0, 0, 0, 0), (0, 7, 0, 0, 0, 0),
                           (0, 0, WIDE, WIDE, 0, 0),
                           (0, 0, WIDE, -WIDE, 0, 0),
                           (0, 0, 0, 0, 1, 1), (0, 0, 0, 0, 1, -1)]))
    for s in subsets:
        expected = reduce_lines_reference(s)
        for argv in _reduce_argvs(s, rng):
            assert _run(capsys, *argv) == (0, expected, ""), argv
    # the last input's wide block is printed on every line
    assert "1000000000000000000000001, -1000000000000000000000001" in \
        expected


def test_reduce_prints_nothing_before_an_error(capsys):
    # vector 3 could be projected first, but the input is not orthogonal
    for argv in _reduce_argvs(Subset([(1, 1, 0), (0, 1, 0), (0, 0, 5)]),
                              random.Random(97)):
        assert _run(capsys, *argv) == (
            65, "", "error: reduce requires an orthogonal subset\n")


def test_contract_cli(capsys):
    code, out, _ = _run(capsys, "contract", "--matrix",
                        "1 -1 1; 1 0 -1; 0 1 -1", "-i", "1",
                        "--vectors", "1", "2", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["kind"] == "Contraction"
    assert payload["result"] == [[1, 1], [-1, -1]]

    code, _, err = _run(capsys, "contract", "--matrix",
                        "1 -1 1; 1 0 -1; 0 1 -1", "-i", "2",
                        "--vectors", "1", "2", "3")
    assert code == 65
    assert err == ("error: coordinate i must be supported by exactly the "
                   "vectors s, t and u\n")

    # coordinate 2 of the identity is supported by vector 2 alone
    code, out, err = _run(capsys, "contract", "--matrix",
                          "1 0 0 0; 0 1 0 0; 0 0 1 0; 0 0 0 1", "-i", "2",
                          "--vectors", "1", "2", "3")
    assert (code, out) == (65, "")
    assert err == ("error: coordinate i must be supported by exactly the "
                   "vectors s, t and u\n")


@pytest.mark.parametrize("indices, message", [
    (("-i", "9", "--vectors", "1", "2", "3"), "coordinate 9"),
    (("-i", "0", "--vectors", "1", "2", "3"), "coordinate 0"),
    (("-i", "1", "--vectors", "0", "1", "2"), "vector 0"),
])
def test_contract_index_out_of_range(capsys, indices, message):
    code, out, err = _run(capsys, "contract", "--matrix",
                          "2 0 0; 0 2 0; 0 0 2", *indices)
    assert code == 64
    assert out == ""
    assert err == f"error: {message} is outside 1..3\n"


# one call per payload shape the CLI prints as JSON: every verdict status,
# every block kind and every reduce step kind, and the edge cases of the
# hand-written lines: entries past 64 bits and empty support lists
JSON_CALLS = [
    ("check", "--matrix", "2 0; 1 2"),
    ("check", "--matrix", "3 0; 0 1"),
    ("check", "--matrix", "3 0; 0 3"),
    ("check", "--matrix", "3 0; 0 1", "--cap", "1"),
    ("hajos", "--matrix", "2 0; 1 2"),
    ("hajos", "--matrix", "2 0; 0 6"),
    ("classify", "--matrix", "1 1 0 0; 1 -1 0 0; 0 0 2 0; 0 0 0 1"),
    ("classify", "--matrix", "3 0; 0 1"),
    ("stats", "--matrix", "1 0 -1; 1 -1 1; 0 3 0"),
    ("stats", "--matrix", "0 0; 0 1"),
    ("stats", "--matrix", f"{-10 ** 30} 0; 0 1"),
    ("wu", "--matrix", "1 0 -1; 1 -1 1; 0 3 0"),
    ("wu", "--matrix", "1 0; 0 1"),
    ("wu", "--matrix", f"{10 ** 30} 0; 0 -1"),
    ("torus", "2", "2", "--format", "json"),
    ("torus", "3", "5", "--format", "json"),
    ("contract", "--matrix", "1 -1 1; 1 0 -1; 0 1 -1", "-i", "1",
     "--vectors", "1", "2", "3"),
    ("reduce", "--matrix", "0 1 1 0; 2 0 0 0; 0 1 -1 0; 0 0 0 1"),
]


def test_json_writer_matches_json_dumps(capsys):
    # every command writes its JSON by hand, one f-string per line: each
    # line must be what json.dumps writes for the value it holds
    printed = ""
    for argv in JSON_CALLS:
        code, out, err = _run(capsys, *argv)
        assert err == "" and code in (0, 1, 2), argv
        for line in out.splitlines():
            assert json.dumps(json.loads(line)) == line, argv
        printed += out
    for status in Status:
        assert f'"status": "{status.value}"' in printed
    for kind in [UNIT, TWO_TIMES, HYPER_2X2, OTHER, PROJECTION,
                 DOUBLE_PROJECTION, CONTRACTION]:
        assert f'"kind": "{kind}"' in printed
    # the edge cases print what they exist for
    assert '"by_coordinate": [[], [2]]' in printed
    assert '"heavy": [[], [], []]' in printed
    assert f'"norms": [{10 ** 60}, 1]' in printed
    assert f'"W": [{10 ** 30}, -1]' in printed


def _verdict_shapes():
    """A verdict of every status with each of its certificate fields set or
    not, entries of many sizes and signs among them."""
    hajos = HajosBasis(BasisMatrix([[2, 0, 0], [1, 2, 0], [0, 1, 2]]),
                       (1, 0, 2))
    for status in Status:
        for witness in (None, (0,), (1, 0, -2), (10 ** 30, 0)):
            for inequality in (None, (9, 4), (-3, 0), (2 ** 70, 2 ** 64)):
                for found in (None, hajos):
                    yield CubiquityVerdict(status, witness, inequality, found)


def test_verdict_writers_match_json_dumps(capsys):
    # the one-step writers print json.dumps of the payload: every verdict
    # shape through check's writer, and hajos's found and absent payloads
    for verdict in _verdict_shapes():
        cli._emit_verdict(verdict, "json")
        line = capsys.readouterr().out
        assert line == json.dumps(verdict.to_json_dict()) + "\n", verdict
        jsonschema.validate(json.loads(line), SCHEMA)
    for rows, found in (("2 0 0; 1 2 0; 0 1 2", True),
                        ("0 2 0; 2 0 0; 1 1 2", True),
                        ("2 0; 0 6", False), ("1 0; 0 4", False)):
        code, out, err = _run(capsys, "hajos", "--matrix", rows)
        basis = hajos_basis(BasisMatrix(parse_inline(rows)))
        payload = {
            "hajos_basis": None if basis is None
            else [list(r) for r in basis.matrix.rows],
            "row_order": None if basis is None
            else [i + 1 for i in basis.row_order]}
        assert (code, err) == (0 if found else 1, "")
        assert (basis is not None) == found
        assert out == json.dumps(payload) + "\n", rows


def test_internal_error_exits_70(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = _run(capsys, "check", "--matrix", "2 0; 0 2")
    assert code == cli.EXIT_SOFTWARE == 70
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_parser_built_once_per_process(monkeypatch, capsys):
    # a command builds its own parser on its first call and reuses it; the
    # full tree is built once, for the first unknown command
    calls = []
    build = _commands.build_parser

    def counting_build():
        calls.append(None)
        return build()

    monkeypatch.setattr(_commands, "build_parser", counting_build)
    cli._parser.cache_clear()
    cli._command_parser.cache_clear()
    try:
        codes = [_run(capsys, *argv)[0] for argv in (
            ("check", "--matrix", "2 0; 0 2"),
            ("hajos", "--matrix", "2 0; 0 2"),
            ("check", "--format", "yaml"),
            ("classify", "--matrix", "1 0; 0 1"),
            ("bogus",),
            ("bogus",),
        )]
        built = cli._command_parser.cache_info()
    finally:
        cli._parser.cache_clear()
        cli._command_parser.cache_clear()
    assert codes == [0, 0, 64, 0, 64, 64]
    assert (built.misses, built.currsize) == (3, 3)
    assert len(calls) == 1


def test_top_level_parser_runs_only_without_a_command(monkeypatch, capsys):
    top = cli._parser()
    parse = top.parse_known_args
    calls = []

    def counted(args=None, namespace=None):
        calls.append(args)
        return parse(args, namespace)

    monkeypatch.setattr(top, "parse_known_args", counted)
    codes = [_run(capsys, *argv)[0] for argv in (
        ("check", "--matrix", "2 0; 0 2"),
        ("hajos", "--cap", "3", "--matrix", "2 0; 0 2"),
        ("bogus",),
        (),
    )]
    assert codes == [0, 64, 64, 64]
    assert calls == [["bogus"], []]


DIAG222 = "2 0 0; 0 2 0; 0 0 2"


def test_check_hajos_route_ignores_cap(capsys, monkeypatch):
    # the cap meters brute force only, and hajos does not read it
    code, out, _ = _run(capsys, "check", "--matrix", DIAG222, "--cap", "1")
    assert code == 0
    assert json.loads(out) == {"status": "Cubiquitous", "witness": None,
                               "inequality": None,
                               "hajos_basis": [[2, 0, 0], [0, 2, 0],
                                               [0, 0, 2]]}
    monkeypatch.setenv("CUBIQUITY_RESOURCE_CAP", "abc")
    code, out, err = _run(capsys, "hajos", "--matrix", DIAG222)
    assert (code, err) == (0, "")
    assert json.loads(out)["row_order"] == [1, 2, 3]


def test_hajos_cap_boundary(capsys, monkeypatch):
    # the greedy search takes no cap: `--cap` is a usage error on either
    # side of the old n * 2^n = 24 step boundary, and a cap in the
    # environment below that boundary does not stop the search
    for value in ("24", "23"):
        code, out, err = _run(capsys, "hajos", "--matrix", DIAG222,
                              "--cap", value)
        assert code == 64
        assert out == ""
        assert "--cap" in err
    monkeypatch.setenv("CUBIQUITY_RESOURCE_CAP", "23")
    code, out, err = _run(capsys, "hajos", "--matrix", DIAG222)
    assert (code, err) == (0, "")
    assert json.loads(out)["row_order"] == [1, 2, 3]


def test_perm_cap_flag_removed(capsys):
    for command in ("check", "hajos"):
        code, out, err = _run(capsys, command, "--matrix", DIAG222,
                              "--perm-cap", "8")
        assert code == 64
        assert out == ""
        assert "--perm-cap" in err


def test_hajos_n10_chain_matches_permutation_scan(capsys):
    # the chain's only Hajos order is the identity, so with its last four
    # rows shuffled the reference scan stops within 4! orders
    n = 10
    chain = [[2 if j == i else int(j == i - 1) for j in range(n)]
             for i in range(n)]
    rows = [chain[i] for i in (0, 1, 2, 3, 4, 5, 9, 7, 6, 8)]
    b = unimodular_mix(BasisMatrix(rows), random.Random(10), 2 * n)
    expected = hajos_permutation_scan(b)
    assert expected.row_order[:6] == (0, 1, 2, 3, 4, 5)
    matrix = "; ".join(" ".join(map(str, r)) for r in b.rows)
    code, out, _ = _run(capsys, "hajos", "--matrix", matrix)
    assert code == 0
    assert json.loads(out) == {
        "hajos_basis": [list(r) for r in expected.matrix.rows],
        "row_order": [i + 1 for i in expected.row_order],
    }


def test_det4_value_and_csv(capsys):
    code, out, _ = _run(capsys, "det4", "3", "3", "3", "3")
    assert code == 0
    assert out == "0\n"

    code, out, _ = _run(capsys, "det4", "--zeros", "--bound", "10")
    assert code == 0
    assert out.splitlines() == [
        "a,b,c,d", "1,3,7,7", "1,4,4,9", "1,5,5,5",
        "2,2,5,5", "2,3,3,5", "3,3,3,3",
    ]

    code, _, err = _run(capsys, "det4", "1", "2")
    assert code == 64


def test_det4_zeros_huge_bound(capsys):
    code, out, err = _run(capsys, "det4", "--zeros", "--bound", "1000000000")
    assert code == 0
    assert err == ""
    assert out.splitlines() == ["a,b,c,d"] + [
        ",".join(map(str, sol)) for sol in (
            (1, 2, 6, 41), (1, 2, 7, 23), (1, 2, 8, 17), (1, 2, 9, 14),
            (1, 2, 11, 11), (1, 3, 4, 19), (1, 3, 5, 11), (1, 3, 7, 7),
            (1, 4, 4, 9), (1, 5, 5, 5), (2, 2, 3, 11), (2, 2, 5, 5),
            (2, 3, 3, 5), (3, 3, 3, 3))]


def test_det4_zeros_bound_usage_error(capsys):
    code, out, err = _run(capsys, "det4", "--zeros", "--bound", "0")
    assert code == 64
    assert out == ""
    assert err.startswith("error: ")


def test_catalog_round_trip(capsys):
    code, out, _ = _run(capsys, "catalog", "--index", "1")
    assert code == 0
    rows = parse_matrix(out)
    assert rows[0] == (1, 1, 1, 1, 0, 0, 0, 0)

    # the combined listing separates blocks with comment lines only
    code, out, _ = _run(capsys, "catalog")
    assert code == 0
    chunks = out.split("# catalog block 2\n")
    assert len(chunks) == 2
    first = parse_matrix(chunks[0])
    second = parse_matrix(chunks[1])
    assert first != second


def test_check_text_output_reparses(capsys):
    code, out, _ = _run(capsys, "check", "--matrix", "2 0; 0 2",
                        "--format", "text")
    assert code == 0
    # informational lines are comments, so the stream is a valid matrix file
    assert parse_matrix(out) == ((2, 0), (0, 2))


def test_usage_errors(capsys):
    code, _, err = _run(capsys, "bogus")
    assert code == 64
    code, _, err = _run(capsys, "check")
    assert code == 64
    code, _, err = _run(capsys, "check", "--matrix", "1", "also_a_file")
    assert code == 64


def test_input_errors(tmp_path, capsys):
    code, _, err = _run(capsys, "check", str(tmp_path / "missing.txt"))
    assert code == 65

    bad = tmp_path / "bad.txt"
    bad.write_text("2\n1 2 3\n4 5 6\n")
    code, _, err = _run(capsys, "check", str(bad))
    assert code == 65

    singular = tmp_path / "singular.txt"
    singular.write_text("2\n1 1\n1 1\n")
    code, _, err = _run(capsys, "check", str(singular))
    assert code == 65
    assert err == "error: columns of the 2x2 matrix are linearly dependent\n"


@pytest.mark.parametrize("text, message", [
    ("# c; 2 0\n0 2", "inline row '2 0\\n0 2' holds a line break"),
    ("2 0; # c", "bad matrix row '# c'"),
])
def test_inline_parts_are_rows_only(text, message, capsys):
    # one row per ';' part: joined into file text and parsed again, the
    # first read as diag(2, 2), with '# c' a comment
    assert _run(capsys, "check", "--matrix", text) == (
        65, "", f"error: {message}\n")


def test_non_utf8_input_exits_65(tmp_path, capsys):
    path = tmp_path / "bom16.txt"
    path.write_bytes(b"\xff\xfe\n")
    code, out, err = _run(capsys, "check", str(path))
    assert code == 65
    assert out == ""
    assert err.startswith("error: ") and "internal error" not in err


def test_file_with_a_byte_order_mark(tmp_path, capsys):
    # an editor's UTF-8 byte-order mark before the dimension is dropped
    plain, marked = tmp_path / "plain.txt", tmp_path / "marked.txt"
    plain.write_bytes(b"2\r\n2 0\r\n1 2\r\n")
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    first = _run(capsys, "check", str(plain))
    assert first[0] == 0 and '"hajos_basis": [[2, 0], [1, 2]]' in first[1]
    assert _run(capsys, "check", str(marked)) == first


def test_byte_identical_output(capsys):
    first = _run(capsys, "check", "--matrix", "1 0; 0 3")
    second = _run(capsys, "check", "--matrix", "1 0; 0 3")
    assert first == second


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("1\n3\n"))
    code, out, _ = _run(capsys, "check", "-")
    assert code == 1


class _ClosedPipe:
    """A stdout whose reader has gone away, failing on write or on flush."""

    def __init__(self, fail_on):
        self.fail_on = fail_on

    def write(self, text):
        if self.fail_on == "write":
            raise BrokenPipeError(32, "Broken pipe")
        return len(text)

    def flush(self):
        if self.fail_on == "flush":
            raise BrokenPipeError(32, "Broken pipe")


@pytest.mark.parametrize("fail_on", ["write", "flush"])
def test_broken_pipe_exits_74(monkeypatch, capsys, fail_on):
    monkeypatch.setattr("sys.stdout", _ClosedPipe(fail_on))
    code = run(["det4", "--zeros", "--bound", "1000"])
    assert code == cli.EXIT_IOERR == 74
    assert capsys.readouterr().err == ""


SRC = Path(__file__).resolve().parent.parent / "src"


def _child(*args, unbuffered=False, **kwargs):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, *args], env=env, timeout=60,
                          **kwargs)


@pytest.mark.parametrize("unbuffered", [False, True],
                         ids=["buffered", "unbuffered"])
def test_broken_pipe_process_exits_74_silently(unbuffered):
    # the read end is closed before the child writes, so every write fails;
    # buffered, the output is still pending when the interpreter exits
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = _child("-m", "cubiquity.cli", "catalog", stdout=write_end,
                      stderr=subprocess.PIPE, unbuffered=unbuffered)
    finally:
        os.close(write_end)
    assert proc.returncode == 74
    assert proc.stderr == b""


def _closed(fd):
    # closes one of the child's standard descriptors before it starts, as
    # `<&-` and `>&-` do in a shell
    return lambda: os.close(fd)


def test_closed_stdin_is_an_input_error():
    # the interpreter sets sys.stdin to None; an empty stdin exits the same
    proc = _child("-m", "cubiquity.cli", "check", "-", capture_output=True,
                  preexec_fn=_closed(0))
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        65, b"", b"error: no data lines\n")


@pytest.mark.parametrize("argv, code, stderr", [
    (("catalog",), 74, b"error: stdout is closed\n"),
    (("check", "--matrix", "3 0; 0 1"), 74, b"error: stdout is closed\n"),
    (("classify", "--matrix", "1 1; 1 -1"), 74,
     b"error: stdout is closed\n"),
    # nothing was printed, so the error that stopped the call still names it
    (("check", "--nope"), 64, b"error: unrecognized arguments: --nope\n"),
    (("check", "--matrix", "2 2; 2 2"), 65,
     b"error: columns of the 2x2 matrix are linearly dependent\n"),
    # help goes through the same check: argparse would fall back to stderr
    (("check", "--help"), 74, b"error: stdout is closed\n"),
    (("--help",), 74, b"error: stdout is closed\n"),
])
def test_closed_stdout_is_an_output_error(argv, code, stderr):
    # print writes nothing when sys.stdout is None, so the verdict's exit
    # code would claim an answer no one could read
    proc = _child("-m", "cubiquity.cli", *argv, stderr=subprocess.PIPE,
                  preexec_fn=_closed(1))
    assert (proc.returncode, proc.stderr) == (code, stderr)


@pytest.mark.skipif(not os.path.exists("/dev/full"),
                    reason="needs a device that refuses every write")
@pytest.mark.parametrize("argv", [("check", "--help"), ("--help",)])
def test_help_into_a_full_device_is_an_output_error(argv):
    with open("/dev/full", "wb") as full:
        proc = _child("-m", "cubiquity.cli", *argv, stdout=full,
                      stderr=subprocess.PIPE)
    assert proc.returncode == 74
    assert proc.stderr.startswith(b"error: ")


def test_help_returns_from_run(capsys):
    # help ends in run, as a command does, instead of raising SystemExit
    assert run(["check", "--help"]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("usage: cubiquity check") and err == ""
    assert run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: cubiquity ")


COLD_IMPORTS = """
import sys
start = set(sys.modules)  # before this script imports anything
import contextlib, io
from cubiquity import cli


def call(*argv):
    with contextlib.redirect_stdout(io.StringIO()) as out:
        code = cli.run(list(argv))
    return code, out.getvalue()


def loaded():
    return sorted(set(sys.modules) - start)


small = [call("check", "--matrix", "2 0; 1 2"),
         call("hajos", "--matrix", "2 0; 1 2"),
         call("check", "--matrix", "2 0 0; 1 1 0; 0 1 2")]
result = {"check_and_hajos": loaded()}
result.update(brute=call("check", "--matrix", "1 0; 0 3"),
              after_brute=loaded())
small.append(call("classify", "--matrix", "1 0; 0 2"))
result.update(small=small, after_classify=loaded(),
              parser_built=cli._parser.cache_info().currsize)
result.update(wu=call("wu", "--matrix", "1 1 0; 1 -1 0; 0 0 2"),
              after_wu=loaded())
identity = "; ".join(" ".join("1" if i == j else "0" for j in range(20))
                     for i in range(20))
result.update(large=call("check", "--matrix", identity), after_large=loaded())
print(repr(result))
"""


def test_check_and_hajos_load_only_what_they_run():
    proc = _child("-c", COLD_IMPORTS, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = ast.literal_eval(proc.stdout)
    assert [code for code, _ in result["small"]] == [0, 0, 0, 0]
    # measured against the interpreter's own start, so a module that a
    # site hook already loaded does not count; index 4 < 2^3 is certified
    # by its 1-2 triangle, so brute force never loads cosets
    for module in ("dataclasses", "json", "cubiquity.subsets",
                   "cubiquity.classify", "cubiquity.transforms",
                   "cubiquity.cosets", "cubiquity.packed",
                   "cubiquity._commands", "cubiquity.wu",
                   "cubiquity.membership"):
        assert module not in result["check_and_hajos"]
    assert "cubiquity.obstructions" in result["check_and_hajos"]
    # index 3 is brute force's: its first call loads cosets, and still none
    # of the other commands' modules
    assert result["brute"] == (1, '{"status": "NotCubiquitous", "witness": '
                               '[0, 1], "inequality": null, '
                               '"hajos_basis": null}\n')
    assert "cubiquity.cosets" in result["after_brute"]
    for module in ("cubiquity._commands", "cubiquity.wu",
                   "cubiquity.membership", "cubiquity.packed", "json"):
        assert module not in result["after_brute"]
    # no 2 x 2 call writes with json, takes a packed determinant or builds
    # the full parser tree; classify is run from the other commands' module
    assert "cubiquity.classify" in result["after_classify"]
    assert "cubiquity._commands" in result["after_classify"]
    assert not [module for module in result["after_classify"]
                if module in ("json", "_json", "cubiquity.packed")
                or module.startswith("json.")]
    assert result["parser_built"] == 0
    assert json.loads(result["small"][3][1])["verdict"]["status"] == \
        "Cubiquitous"
    # the Wu obstruction is the wu command's alone, and no command runs
    # the membership functions
    assert "cubiquity.wu" not in result["after_classify"]
    assert result["wu"][0] == 2
    assert "cubiquity.wu" in result["after_wu"]
    assert "cubiquity.membership" not in result["after_wu"]
    # a 20-row determinant is the packed kernel's
    assert result["large"][0] == 0
    assert "cubiquity.packed" in result["after_large"]
