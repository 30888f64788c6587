"""Property test of ``cli.run`` over generated argv, all in one process.

Matrices have n <= 5 and entries in [-3, 3], so every brute-force call
stays cheap.  Positional file names and -h/--help are never generated.
"""

import contextlib
import io
import json
from pathlib import Path

import jsonschema
from hypothesis import given, settings
from hypothesis import strategies as st

from cubiquity.cli import run

SCHEMA = json.loads(
    (Path(__file__).resolve().parent.parent / "docs" /
     "verdict.schema.json").read_text())

ALLOWED_EXITS = {0, 1, 2, 64, 65}
DEFAULT_FORMAT = {"check": "json", "wu": "json", "stats": "json",
                  "hajos": "json", "classify": "json", "torus": "text",
                  "reduce": "json", "contract": "json"}

MALFORMED = st.sampled_from(
    ["", ";", "x", "1.5", "1 2; 3", "2 0; 0", "1;;1", "1 2 3", "--", "3 -",
     "0", "0 0; 0 0", "9999999999999999999999"])


@st.composite
def matrix_text(draw):
    n = draw(st.integers(1, 5))
    rows = [" ".join(str(draw(st.integers(-3, 3))) for _ in range(n))
            for _ in range(n)]
    return "; ".join(rows)


def one_in(odds, rare, common):
    """``rare`` when a draw from 1..odds is 1, else ``common``."""
    return st.integers(1, odds).flatmap(
        lambda k: common if k > 1 else rare)


INT_TEXT = one_in(5, st.sampled_from(["x", "", "1.5", "--", "1e3"]),
                  st.integers(-3, 12).map(str))


def flag(name, values):
    return values.map(lambda value: [name, value])


SOURCE = [flag("--matrix", one_in(4, MALFORMED, matrix_text())),
          st.just(["--rows-as-vectors"])]
INDEX = st.integers(-1, 6).map(str)
FORMAT = flag("--format", one_in(5, st.just("yaml"),
                                 st.sampled_from(["json", "text"])))
PERM_CAP = flag("--perm-cap", INT_TEXT)
OPTIONS = {
    "check": SOURCE + [FORMAT, flag("--cap", INT_TEXT), PERM_CAP],
    "wu": SOURCE + [FORMAT],
    "stats": SOURCE + [FORMAT],
    "hajos": SOURCE + [FORMAT, PERM_CAP],
    "classify": SOURCE + [FORMAT],
    "reduce": SOURCE,
    "contract": SOURCE + [
        flag("-i", INT_TEXT),
        one_in(4, st.lists(INDEX, max_size=2),
               st.lists(INDEX, min_size=3, max_size=3)).map(
            lambda vs: ["--vectors", *vs])],
    "torus": [FORMAT, st.lists(st.integers(-5, 5).map(str), max_size=4).map(
        lambda ks: ["--", *ks])],
    "det4": [st.just(["--zeros"]), flag("--bound", INT_TEXT),
             st.lists(st.integers(-3, 12).map(str), max_size=5)],
    "catalog": [flag("--index", st.sampled_from(["1", "2", "3", "x"]))],
}
JUNK = st.sampled_from([["--nope"], ["--format"], ["--matrix"], ["-i"]])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(sorted(OPTIONS) + ["bogus", ""]))
    drawn = [draw(one_in(3, st.none(), piece))
             for piece in OPTIONS.get(command, [])]
    pieces = draw(st.permutations([p for p in drawn if p is not None]))
    junk = draw(one_in(5, JUNK, st.none()))
    if junk is not None:
        pieces.insert(draw(st.integers(0, len(pieces))), junk)
    return [command] + [token for piece in pieces for token in piece]


def call(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(list(argv))
    return code, out.getvalue(), err.getvalue()


def last_format(argv):
    values = [argv[i + 1] for i, token in enumerate(argv[:-1])
              if token == "--format"]
    return values[-1] if values else None


@settings(max_examples=300, deadline=None)
@given(argvs())
def test_run_exit_codes_streams_and_repeatability(argv):
    code, out, err = call(argv)
    assert code in ALLOWED_EXITS, (argv, code, err)

    # errors go only to stderr, and nothing else does
    if code in (64, 65):
        assert out == ""
        assert err.startswith("error: ") and err.endswith("\n")
    else:
        assert not (out and err)
        assert err == "" or err.startswith("inconclusive: ")

    command = argv[0]
    if out and (last_format(argv) or DEFAULT_FORMAT.get(command)) == "json":
        lines = [json.loads(line) for line in out.splitlines()]
        if command == "check":
            assert len(lines) == 1
            jsonschema.validate(lines[0], SCHEMA)

    # the cached parser keeps nothing between calls: the same argv gives
    # the same bytes twice in a row and again right after a usage error
    assert call(argv) == (code, out, err)
    assert call(["check", "--format", "yaml"])[0] == 64
    assert call(argv) == (code, out, err)
