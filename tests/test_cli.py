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
from cli_cases import CASES, mismatch
from families import chain, lower, mix, orthogonal_sum, signed_permutation
from helpers import count_calls, hajos_permutation_scan, reduce_lines_reference

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
        text = _matrix_text(
            signed_permutation(mix(chain(rng, n), rng, 2 * n), rng))
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
    subsets = [Subset(zip(*orthogonal_sum(rng, n))) for n in range(1, 97)]
    # whole vectors scaled by +-WIDE stay orthogonal; a scaled pair is no
    # longer hyperbolic, so wide entries reach the Reduced line too
    for n in (3, 7, 12, 24):
        s = Subset(zip(*orthogonal_sum(rng, n)))
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


def _json_lines(*commands):
    """Every JSON line that a row of the table running one of ``commands``
    pins."""
    return [line for case in CASES if case.argv[0] in commands
            for line in case.stdout.splitlines() if line.startswith("{")]


def test_json_writer_matches_json_dumps():
    # every command writes its JSON by hand, one f-string per line: each
    # line a row pins must be what json.dumps writes for the value it
    # holds, and the rows together print every status and every block and
    # step kind
    lines = _json_lines(*cli._COMMANDS)
    for line in lines:
        assert json.dumps(json.loads(line)) == line
    printed = "\n".join(lines)
    for status in Status:
        assert f'"status": "{status.value}"' in printed
    for kind in [UNIT, TWO_TIMES, HYPER_2X2, OTHER, PROJECTION,
                 DOUBLE_PROJECTION, CONTRACTION]:
        assert f'"kind": "{kind}"' in printed


def test_text_rows_read_back_as_matrix_files():
    # every informational line of the text output is a comment, so the
    # basis that a check or hajos row prints reads back from its output
    texts = [case.stdout for case in CASES if case.code == 0
             and case.argv[0] in ("check", "hajos") and "text" in case.argv]
    assert texts and all(parse_matrix(text) for text in texts)


def test_rows_print_verdicts_of_the_schema():
    # check's verdicts, and the verdict that classify nests, of every row
    verdicts = [json.loads(line) for line in _json_lines("check")]
    verdicts += [json.loads(line)["verdict"]
                 for line in _json_lines("classify")]
    assert {verdict["status"] for verdict in verdicts} == {
        status.value for status in Status}
    for verdict in verdicts:
        jsonschema.validate(verdict, SCHEMA)


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


def test_hajos_n10_chain_matches_permutation_scan(capsys):
    # the chain's only Hajos order is the identity, so with its last four
    # rows shuffled the reference scan stops within 4! orders
    n = 10
    rows = lower([2] * n, lambda i, j: int(j == i - 1))
    rows = [rows[i] for i in (0, 1, 2, 3, 4, 5, 9, 7, 6, 8)]
    b = BasisMatrix(mix(rows, random.Random(10), 2 * n))
    expected = hajos_permutation_scan(b)
    assert expected.row_order[:6] == (0, 1, 2, 3, 4, 5)
    matrix = "; ".join(" ".join(map(str, r)) for r in b.rows)
    code, out, _ = _run(capsys, "hajos", "--matrix", matrix)
    assert code == 0
    assert json.loads(out) == {
        "hajos_basis": [list(r) for r in expected.matrix.rows],
        "row_order": [i + 1 for i in expected.row_order],
    }


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
    # no child's answer depends on the caller's cap
    env.pop(cli.CAP_ENV_VAR, None)
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


def test_check_and_hajos_load_only_what_they_run():
    # one process imports cli, which must load no module that a row skips,
    # then runs each row that names modules, in table order: by its end
    # the call has loaded the row's loads, and the call itself none of its
    # skips, and no call has built the full parser tree.  A skipped module
    # that an earlier call loaded must be in an earlier row's loads, so a
    # module that an earlier row loads without saying so cannot hide a
    # skip.  Counted past the interpreter's own start, so a module that a
    # site hook loaded does not count.
    cases = [case for case in CASES if case.loads or case.skips]
    script = f"""
import sys
start = set(sys.modules)  # before this script imports anything
import contextlib, io
from cubiquity import cli
print(sorted(set(sys.modules) - start))
for argv in {[case.argv for case in cases]!r}:
    before = set(sys.modules)
    with contextlib.redirect_stdout(io.StringIO()) as out, \\
            contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli.run(list(argv))
    print((code, out.getvalue(), err.getvalue(),
           sorted(set(sys.modules) - before), sorted(sys.modules)))
print(cli._parser.cache_info().currsize)
"""
    proc = _child("-c", script, capture_output=True, text=True,
                  stdin=subprocess.DEVNULL)
    assert proc.returncode == 0, proc.stderr
    imported, *calls, built = map(ast.literal_eval,
                                  proc.stdout.splitlines())
    assert built == 0
    skips = {module for case in CASES for module in case.skips}
    assert sorted(skips.intersection(imported)) == []
    stated = set()  # the loads of the rows run so far
    for case, (code, out, err, new, loaded) in zip(cases, calls,
                                                   strict=True):
        assert mismatch(case, code, out, err) is None
        assert sorted(set(case.loads).difference(loaded)) == [], case.name
        assert sorted(set(case.skips).intersection(new)) == [], case.name
        before = set(loaded).difference(new)
        assert sorted(set(case.skips).intersection(before)
                      .difference(stated)) == [], case.name
        stated.update(case.loads)
