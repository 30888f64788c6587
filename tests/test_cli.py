import json
import os
import random
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

from cubiquity import BasisMatrix, cli, parse_matrix
from cubiquity.cli import run
from helpers import hajos_permutation_scan, unimodular_mix

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
    # brute force on Z + 3Z costs n * (2^n + |det|) = 14 steps
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3",
                        "--cap", "14")
    assert code == 1
    assert json.loads(out)["witness"] == [0, 1]
    code, out, _ = _run(capsys, "check", "--matrix", "1 0; 0 3",
                        "--cap", "13")
    assert code == 2
    assert json.loads(out)["status"] == "Inconclusive"


def test_check_decides_past_old_vertex_cap(capsys):
    # index 3 * 2^10 at n = 13: |det| * 2^n is past the default cap of
    # 2^24, n * (2^n + |det|) is not
    diag = [6] + [2] * 9 + [1] * 3
    matrix = "; ".join(" ".join(str(d if i == j else 0) for j in range(13))
                       for i, d in enumerate(diag))
    code, out, _ = _run(capsys, "check", "--matrix", matrix)
    assert code == 1
    assert json.loads(out)["witness"] == [1] + [0] * 12


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
    assert "error" in err


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


def test_internal_error_exits_70(monkeypatch, capsys):
    def broken(args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_check", broken)
    code, out, err = _run(capsys, "check", "--matrix", "2 0; 0 2")
    assert code == cli.EXIT_SOFTWARE == 70
    assert out == ""
    assert err == "error: internal error: RuntimeError: boom\n"


def test_parser_built_once_per_process(monkeypatch, capsys):
    calls = []
    build = cli.build_parser

    def counting_build():
        calls.append(None)
        return build()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        codes = [_run(capsys, *argv)[0] for argv in (
            ("check", "--matrix", "2 0; 0 2"),
            ("hajos", "--matrix", "2 0; 0 2"),
            ("check", "--format", "yaml"),
            ("classify", "--matrix", "1 0; 0 1"),
        )]
    finally:
        cli._parser.cache_clear()
    assert codes == [0, 0, 64, 0]
    assert len(calls) == 1


DIAG222 = "2 0 0; 0 2 0; 0 0 2"


def test_hajos_cap_boundary(capsys, monkeypatch):
    # the search costs n * 2^n = 24 steps, counted against the shared cap
    code, out, _ = _run(capsys, "hajos", "--matrix", DIAG222, "--cap", "24")
    assert code == 0
    assert json.loads(out)["row_order"] == [1, 2, 3]
    code, out, err = _run(capsys, "hajos", "--matrix", DIAG222,
                          "--cap", "23")
    assert code == 2
    assert out == ""
    assert "24 steps" in err and "cap is 23" in err
    monkeypatch.setenv("CUBIQUITY_RESOURCE_CAP", "23")
    assert _run(capsys, "hajos", "--matrix", DIAG222)[0] == 2


def test_check_hajos_cap_boundary(capsys):
    code, out, _ = _run(capsys, "check", "--matrix", DIAG222, "--cap", "24")
    assert code == 0
    payload = json.loads(out)
    assert payload["status"] == "Cubiquitous"
    assert payload["hajos_basis"] == [[2, 0, 0], [0, 2, 0], [0, 0, 2]]
    code, out, _ = _run(capsys, "check", "--matrix", DIAG222, "--cap", "23")
    assert code == 2
    assert json.loads(out) == {"status": "Inconclusive", "witness": None,
                               "inequality": None, "hajos_basis": None}


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


COLD_IMPORTS = """
import contextlib, io, json, sys
start = set(sys.modules)
from cubiquity import cli
with contextlib.redirect_stdout(io.StringIO()):
    codes = [cli.run(["check", "--matrix", "2 0; 1 2"]),
             cli.run(["hajos", "--matrix", "2 0; 1 2"])]
loaded = sorted(set(sys.modules) - start)
with contextlib.redirect_stdout(io.StringIO()) as out:
    codes.append(cli.run(["classify", "--matrix", "1 0; 0 2"]))
print(json.dumps({"codes": codes, "loaded": loaded,
                  "classify": out.getvalue()}))
"""


def test_check_and_hajos_load_only_what_they_run():
    proc = _child("-c", COLD_IMPORTS, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout)
    assert result["codes"] == [0, 0, 0]
    # measured against the interpreter's own start, so a module that a
    # site hook already loaded does not count
    for module in ("dataclasses", "cubiquity.subsets", "cubiquity.classify",
                   "cubiquity.transforms"):
        assert module not in result["loaded"]
    assert "cubiquity.obstructions" in result["loaded"]
    assert json.loads(result["classify"])["verdict"]["status"] == \
        "Cubiquitous"
