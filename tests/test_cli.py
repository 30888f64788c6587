import json
from pathlib import Path

import jsonschema
import pytest

from cubiquity import cli, parse_matrix
from cubiquity.cli import run

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


def test_hajos_perm_cap_message(capsys):
    code, out, err = _run(capsys, "hajos", "--matrix", "2 0 0; 0 2 0; 0 0 2",
                          "--perm-cap", "2")
    assert code == 2
    assert out == ""
    assert "dimension 3" in err and "cap 2" in err


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
