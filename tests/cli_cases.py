"""The pinned calls of the command-line interface, one row each.

A row holds the arguments, the bytes on stdin if any, and the exact exit
code, stdout and stderr.  A row may also name the modules that a cold run
of it must load (``loads``) and must not load (``skips``), counted past
what the interpreter loads at its own start: these columns are where the
package states which code each command runs.  ``tests/test_cli_cases.py``
runs every row in process through ``cubiquity.cli.run``, and through
``main`` below.  Run as a script, this module runs every row as a
subprocess of a command and reports each row that differs:

    python tests/cli_cases.py [COMMAND ...]

COMMAND defaults to ``python -m cubiquity.cli``, which checks the checkout
with ``PYTHONPATH=src``; the path of an installed ``cubiquity`` script
checks that installation.  Where COMMAND is an interpreter's ``-m`` run,
each row runs under ``-X importtime`` and its modules are checked too; a
script's run checks bytes only.  The module imports nothing from
``cubiquity``, so the table cannot borrow from the code it checks.

Every lazily loaded module but ``membership``, which no command runs, is
in some row's ``loads``, and ``tests/test_cli_cases.py`` checks that.
``wu`` and ``stats`` run the non-acute predicate and the support lists,
and ``hajos`` and ``contract`` are the other two subcommands that read a
matrix.  Every JSON line is written by hand, so the rows pin each
command's payload byte for byte: every status of ``check``, ``wu`` and
``torus``, and ``stats`` with empty support lists and entries past 64
bits among them.  Through ``python -m cubiquity.cli`` the CLI module runs
as ``__main__``, and the ``det4`` usage errors show that _commands raises
the ``UsageError`` class that module catches.
"""

import subprocess
import sys
from typing import NamedTuple, Optional, Union


class Case(NamedTuple):
    name: str
    argv: tuple[str, ...]
    code: int
    stdout: str
    # a tuple lists every spelling accepted
    stderr: Union[str, tuple[str, ...]] = ""
    stdin: Optional[bytes] = None
    # the modules a cold run must load, and must not load
    loads: tuple[str, ...] = ()
    skips: tuple[str, ...] = ()


def _inline(rows):
    return "; ".join(" ".join(map(str, row)) for row in rows)


def _diagonal(n, first):
    """diag(first, 1, ..., 1) at dimension n, inline."""
    return _inline([[first if i == j == 0 else int(i == j) for j in range(n)]
                    for i in range(n)])


def _three_i_plus_j(n):
    return _inline([[4 if i == j else 1 for j in range(n)] for i in range(n)])


def _verdict(status, witness="null", inequality="null", hajos_basis="null"):
    return (f'{{"status": "{status}", "witness": {witness}, '
            f'"inequality": {inequality}, "hajos_basis": {hajos_basis}}}\n')


def _obstructed(lhs, rhs):
    return _verdict("Obstructed", inequality=f'{{"lhs": {lhs}, "rhs": {rhs}}}')


def _ours(*names):
    return tuple(f"cubiquity.{name}" for name in names)


# a check or hajos that the determinant gate, the Hajos greedy or the 1-2
# triangle decides loads what importing cubiquity.cli loads, and none of
# the other commands' code
_SMALL_LOADS = _ours("errors", "formats", "lattice", "obstructions")
_SMALL_SKIPS = ("json", "_json", "dataclasses", *_ours(
    "subsets", "classify", "transforms", "cosets", "packed", "_commands",
    "wu", "membership"))

_COMMANDS = ("check", "wu", "stats", "hajos", "classify", "torus", "reduce",
             "contract", "det4", "catalog")

CASES = [
    # index 3 is brute force's: it loads cosets on its first call, and still
    # none of the other commands' code
    Case("check 3 0; 0 1", ("check", "--matrix", "3 0; 0 1"), 1,
         _verdict("NotCubiquitous", witness="[1, 0]"),
         loads=_ours("cosets"),
         skips=("json", *_ours("packed", "_commands", "wu", "membership"))),
    Case("check 1 0; 0 3", ("check", "--matrix", "1 0; 0 3"), 1,
         _verdict("NotCubiquitous", witness="[0, 1]")),
    # the cap meters brute force, so past it the answer is Inconclusive
    Case("check 1 0; 0 3 --cap 1",
         ("check", "--matrix", "1 0; 0 3", "--cap", "1"), 2,
         _verdict("Inconclusive")),
    # index 1 < 2^2: the 1-2 triangle prints brute force's Cubiquitous
    Case("check 1 0; 0 1", ("check", "--matrix", "1 0; 0 1"), 0,
         _verdict("Cubiquitous")),
    # index 2^n with no Hajos basis is settled by the gate alone, without a
    # witness
    Case("check 1 0; 0 4", ("check", "--matrix", "1 0; 0 4"), 1,
         _verdict("NotCubiquitous")),
    # brute force on a quotient that is no cyclic group: Z/2 x Z/6
    Case("check Z/2 x Z/6",
         ("check", "--matrix", "-2 -1 2 -1; -2 1 2 -1; 1 0 -1 -1; -2 -1 0 -1"),
         1, _verdict("NotCubiquitous", witness="[0, 1, 2, 0]")),
    # a 1-2 triangle at a power-of-two index below 2^n is cubiquitous
    # without brute force, so the cap, which meters brute force only, does
    # not refuse it
    Case("check 1 0; 0 2 --cap 1", ("check", "--matrix", "1 0; 0 2", "--cap",
                                     "1"), 0, _verdict("Cubiquitous"),
         loads=_SMALL_LOADS, skips=_SMALL_SKIPS),
    # a basis of Z^2 whose first coordinate takes five column swaps to
    # clear: the triangle's greedy has no swap cap, so it certifies this too
    Case("check 259 55; 113 24 --cap 1",
         ("check", "--matrix", "259 55; 113 24", "--cap", "1"), 0,
         _verdict("Cubiquitous")),
    # index 4 < 2^3, but the greedy stops at the 4: brute force gives the
    # first witness
    Case("check 4 0 0; 0 1 0; 0 0 1", ("check", "--matrix",
                                        "4 0 0; 0 1 0; 0 0 1"), 1,
         _verdict("NotCubiquitous", witness="[1, 0, 0]")),
    # the cap counts n * |det| = 60 here, not n * (2^n + |det|); a 20-row
    # determinant is the packed kernel's
    Case("check diag(3, 1, ..., 1) at n = 20",
         ("check", "--matrix", _diagonal(20, 3)), 1,
         _verdict("NotCubiquitous", witness="[1" + ", 0" * 19 + "]"),
         loads=_ours("packed")),
    Case("check 2 0; 1 2", ("check", "--matrix", "2 0; 1 2"), 0,
         _verdict("Cubiquitous", hajos_basis="[[2, 0], [1, 2]]"),
         loads=_SMALL_LOADS, skips=_SMALL_SKIPS),
    Case("check 2 0; 0 2", ("check", "--matrix", "2 0; 0 2"), 0,
         _verdict("Cubiquitous", hajos_basis="[[2, 0], [0, 2]]")),
    # a mixed basis of diag(2, 2, 2), in text
    Case("check --format text 2 2 0; 0 2 2; 0 0 2",
         ("check", "--matrix", "2 2 0; 0 2 2; 0 0 2", "--format", "text"), 0,
         "# status: Cubiquitous\n# hajos basis, row order 1 2 3\n"
         "3\n2 0 0\n0 2 0\n0 0 2\n"),
    Case("hajos 2 0; 1 2", ("hajos", "--matrix", "2 0; 1 2"), 0,
         '{"hajos_basis": [[2, 0], [1, 2]], "row_order": [1, 2]}\n',
         loads=_SMALL_LOADS, skips=_SMALL_SKIPS),
    Case("hajos 2 0; 0 2", ("hajos", "--matrix", "2 0; 0 2"), 0,
         '{"hajos_basis": [[2, 0], [0, 2]], "row_order": [1, 2]}\n'),
    # index 2^n with no Hajos basis
    Case("hajos 1 0; 0 4", ("hajos", "--matrix", "1 0; 0 4"), 1,
         '{"hajos_basis": null, "row_order": null}\n'),
    Case("hajos --format text 2 2 0; 0 2 2; 0 0 2",
         ("hajos", "--matrix", "2 2 0; 0 2 2; 0 0 2", "--format", "text"), 0,
         "# hajos basis, row order 1 2 3\n3\n2 0 0\n0 2 0\n0 0 2\n"),
    # a Hajos order other than the identity
    Case("hajos --format text 1 0; 2 4",
         ("hajos", "--matrix", "1 0; 2 4", "--format", "text"), 0,
         "# hajos basis, row order 2 1\n2\n2 0\n1 2\n"),
    Case("hajos --format text 1 0; 0 4",
         ("hajos", "--matrix", "1 0; 0 4", "--format", "text"), 1,
         "# absent\n"),
    # the greedy stops at the pivot 6, and on a singular matrix its dead
    # end leaves the block whose determinant is 0
    Case("hajos 2 0; 0 6", ("hajos", "--matrix", "2 0; 0 6"), 1,
         '{"hajos_basis": null, "row_order": null}\n'),
    Case("hajos 2 2; 2 2", ("hajos", "--matrix", "2 2; 2 2"), 65, "",
         "error: columns of the 2x2 matrix are linearly dependent\n"),
    Case("contract 1 -1 1; 1 0 -1; 0 1 -1",
         ("contract", "--matrix", "1 -1 1; 1 0 -1; 0 1 -1", "-i", "1",
          "--vectors", "1", "2", "3"), 0,
         '{"kind": "Contraction", "coordinates": [1], "vectors": [1, 2, 3], '
         '"result": [[1, 1], [-1, -1]]}\n'),
    Case("reduce 1 1; 1 -1", ("reduce", "--matrix", "1 1; 1 -1"), 0,
         '{"kind": "DoubleProjection", "coordinates": [1, 2], '
         '"vectors": [1, 2], "result": []}\n'
         '{"kind": "Reduced", "result": []}\n',
         loads=_ours("transforms")),
    # the later steps act on indices relabelled past earlier deletions
    Case("reduce 0 1 1 0; 2 0 0 0; 0 1 -1 0; 0 0 0 1",
         ("reduce", "--matrix", "0 1 1 0; 2 0 0 0; 0 1 -1 0; 0 0 0 1"), 0,
         '{"kind": "Projection", "coordinates": [2], "vectors": [1], '
         '"result": [[1, 1, 0], [1, -1, 0], [0, 0, 1]]}\n'
         '{"kind": "Projection", "coordinates": [3], "vectors": [3], '
         '"result": [[1, 1], [1, -1]]}\n'
         '{"kind": "DoubleProjection", "coordinates": [1, 2], '
         '"vectors": [1, 2], "result": []}\n'
         '{"kind": "Reduced", "result": []}\n'),
    # reduce prints each entry's str(int), never its input token: the wide
    # block is projected away first, so a diagonal input shows it
    Case("reduce with a wide block",
         ("reduce", "--matrix", "1 1 0; 1 -1 0; 0 0 -1000000000000000000000001"),
         0,
         '{"kind": "Projection", "coordinates": [3], "vectors": [3], '
         '"result": [[1, 1], [1, -1]]}\n'
         '{"kind": "DoubleProjection", "coordinates": [1, 2], '
         '"vectors": [1, 2], "result": []}\n'
         '{"kind": "Reduced", "result": []}\n'),
    Case("reduce +2 -0 0; -0 007 0; 0 0 -10^24 - 1",
         ("reduce", "--matrix",
          "+2 -0 0; -0 007 0; 0 0 -1000000000000000000000001"), 0,
         '{"kind": "Projection", "coordinates": [1], "vectors": [1], '
         '"result": [[7, 0], [0, -1000000000000000000000001]]}\n'
         '{"kind": "Projection", "coordinates": [1], "vectors": [1], '
         '"result": [[-1000000000000000000000001]]}\n'
         '{"kind": "Projection", "coordinates": [1], "vectors": [1], '
         '"result": []}\n'
         '{"kind": "Reduced", "result": []}\n'),
    # classify runs from the other commands' module
    Case("classify 1 1; 1 -1", ("classify", "--matrix", "1 1; 1 -1"), 0,
         '{"blocks": [{"coordinates": [1, 2], "vectors": [1, 2], '
         '"kind": "Hyper2x2"}], "verdict": {"status": "Cubiquitous", '
         '"witness": null, "inequality": null, "hajos_basis": null}}\n',
         loads=_ours("classify", "_commands"),
         skips=("json", *_ours("packed", "wu"))),
    Case("classify 1 0 0; 0 2 0; 0 0 3",
         ("classify", "--matrix", "1 0 0; 0 2 0; 0 0 3"), 1,
         '{"blocks": [{"coordinates": [1], "vectors": [1], "kind": "Unit"}, '
         '{"coordinates": [2], "vectors": [2], "kind": "TwoTimes"}, '
         '{"coordinates": [3], "vectors": [3], "kind": "Other"}], '
         '"verdict": {"status": "NotCubiquitous", "witness": null, '
         '"inequality": null, "hajos_basis": null}}\n'),
    # the orthogonality check reads the products of the vectors that share
    # a coordinate: (1, 1) . (1, 0) = 1
    Case("classify 1 1; 1 0", ("classify", "--matrix", "1 1; 1 0"), 65, "",
         "error: classification requires an orthogonal subset\n"),
    Case("classify 1 1; 0 1", ("classify", "--matrix", "1 1; 0 1"), 65, "",
         "error: classification requires an orthogonal subset\n"),
    # the Wu obstruction is the wu command's alone, and no command runs the
    # membership functions
    Case("wu 1 0 -1; 1 -1 1; 0 3 0", ("wu", "--matrix", "1 0 -1; 1 -1 1; 0 3 0"),
         1, '{"W": [0, 1, 3], "R_o": [2, 3], "lhs": 10, "rhs": 6, '
         '"status": "Obstructed"}\n',
         loads=_ours("wu"), skips=_ours("membership")),
    Case("wu 3", ("wu", "--matrix", "3"), 1,
         '{"W": [3], "R_o": [1], "lhs": 9, "rhs": 1, '
         '"status": "Obstructed"}\n'),
    Case("wu 1 1; 1 -1", ("wu", "--matrix", "1 1; 1 -1"), 2,
         '{"W": [2, 0], "R_o": [], "lhs": 4, "rhs": 8, '
         '"status": "Inconclusive"}\n'),
    Case("wu 1 1; 1 0", ("wu", "--matrix", "1 1; 1 0"), 65, "",
         "error: wu_obstruction requires a non-acute subset\n"),
    Case("stats 1 0 -1; 1 -1 1; 0 3 0",
         ("stats", "--matrix", "1 0 -1; 1 -1 1; 0 3 0"), 0,
         '{"dimension": 3, "norms": [2, 10, 2], "excess": 5, '
         '"counts": [0, 1, 1, 1], "by_coordinate": [[1, 3], [1, 2, 3], [2]], '
         '"by_vector": [[1, 2], [2, 3], [1, 2]], "heavy": [[], [3], [], []], '
         '"identity_holds": true}\n',
         loads=_ours("subsets")),
    Case("stats 3", ("stats", "--matrix", "3"), 0,
         '{"dimension": 1, "norms": [9], "excess": 6, "counts": [0, 1], '
         '"by_coordinate": [[1]], "by_vector": [[1]], "heavy": [[], [1]], '
         '"identity_holds": true}\n'),
    # a zero vector has empty support lists, and the other's norm and the
    # excess run past 64 bits
    Case("stats 0 0; 0 10^30",
         ("stats", "--matrix", f"0 0; 0 {10 ** 30}"), 0,
         f'{{"dimension": 2, "norms": [0, {10 ** 60}], '
         f'"excess": {10 ** 60 - 6}, "counts": [1, 1, 0], '
         '"by_coordinate": [[], [2]], "by_vector": [[], [2]], '
         '"heavy": [[], [2], []], "identity_holds": true}\n'),
    Case("torus --format json 2 2", ("torus", "--format", "json", "2", "2"),
         0, '{"bounds": true}\n'),
    Case("torus --format json 3 5", ("torus", "--format", "json", "3", "5"),
         1, '{"bounds": false}\n'),
    Case("torus --format json -- -2 -2",
         ("torus", "--format", "json", "--", "-2", "-2"), 0,
         '{"bounds": true}\n'),
    Case("torus -- -4 -4", ("torus", "--", "-4", "-4"), 0, "bounds: true\n"),
    Case("torus -- -2 -4", ("torus", "--", "-2", "-4"), 1, "bounds: false\n"),
    Case("torus -- -2 2", ("torus", "--", "-2", "2"), 65, "",
         "error: parameters must all share one sign\n"),
    # a dense 24 x 24 matrix takes the packed determinant: 3I + J has det
    # 3^23 * (3 + 24) = 3^26, past 2^24
    Case("check 3I + J at n = 24", ("check", "--matrix", _three_i_plus_j(24)),
         1, _obstructed(2541865828329, 16777216)),
    # at n = 64 its rows are long enough for the two-column passes: det
    # 3^63 * (3 + 64), past 2^64
    Case("check 3I + J at n = 64", ("check", "--matrix", _three_i_plus_j(64)),
         1, _obstructed(76685605319866112157358629660609,
                        18446744073709551616)),
    # an entry of 2^31 + 1 is past what the struct code i holds, so the
    # packed determinant's first pack takes q
    Case("check diag(2^31 + 1, 1, ..., 1) at n = 20",
         ("check", "--matrix", _diagonal(20, 2 ** 31 + 1)), 1,
         _obstructed(2147483649, 1048576)),
    # entries outside the reader's table of small integers are read by
    # int(): signs, leading zeros, underscores and long entries
    Case("check +2 007; -0 1_0", ("check", "--matrix", "+2 007; -0 1_0"), 1,
         _obstructed(20, 4)),
    Case("check 10^24 + 1",
         ("check", "--matrix", "1000000000000000000000001 0; 0 -1"), 1,
         _obstructed(1000000000000000000000001, 4)),
    # usage errors: an unknown command goes to the top-level parser, a
    # known one straight to its own parser; newer argparse releases print
    # the choices without quotes
    Case("bogus", ("bogus",), 64, "", tuple(
        f"error: argument command: invalid choice: 'bogus' (choose from "
        f"{choices})\n" for choices in (", ".join(map(repr, _COMMANDS)),
                                        ", ".join(_COMMANDS)))),
    Case("check --nope", ("check", "--nope", "--matrix", "2 0; 0 2"), 64, "",
         "error: unrecognized arguments: --nope\n"),
    # --bound sizes the --zeros table and means nothing to the formula
    Case("det4 1 2 3 4 --bound 7",
         ("det4", "1", "2", "3", "4", "--bound", "7"), 64, "",
         "error: --bound applies to --zeros only\n"),
    # argparse hands the word after an unknown option to det4's values, so
    # the error names the option, not the word
    Case("det4 --zeros --format text", ("det4", "--zeros", "--format", "text"),
         64, "", "error: unrecognized arguments: --format\n"),
    Case("det4 1 2 3 x", ("det4", "1", "2", "3", "x"), 64, "",
         "error: argument values: invalid int value: 'x'\n"),
    # one leading UTF-8 byte-order mark is dropped, and CRLF line ends read
    # as line ends
    Case("check - with a byte-order mark", ("check", "-"), 0,
         _verdict("Cubiquitous", hajos_basis="[[2, 0], [1, 2]]"),
         stdin=b"\xef\xbb\xbf2\r\n2 0\r\n1 2\r\n"),
]


def mismatch(case, code, stdout, stderr, loaded=None):
    """How one run of a row differs from it, or None if it does not.
    ``loaded`` is the set of modules that the run loaded, where known."""
    problems = []
    accepted = case.stderr if isinstance(case.stderr, tuple) else (
        case.stderr,)
    if code != case.code or stdout != case.stdout or stderr not in accepted:
        problems.append(f"exit {code} (want {case.code}), "
                        f"stdout {stdout!r}, stderr {stderr!r}")
    if loaded is not None:
        missing = sorted(set(case.loads) - loaded)
        extra = sorted(set(case.skips) & loaded)
        if missing:
            problems.append(f"did not load {', '.join(missing)}")
        if extra:
            problems.append(f"loaded {', '.join(extra)}")
    return f"{case.name}: {'; '.join(problems)}" if problems else None


#: Seconds a row may run before it fails; every row takes well under one.
TIMEOUT = 60


def _imports(stderr):
    """The modules that ``-X importtime`` lists in stderr, and stderr
    without its lines."""
    lines = stderr.splitlines(keepends=True)
    listed = {line.rsplit("|", 1)[-1].strip() for line in lines
              if line.startswith("import time:")}
    return listed, "".join(line for line in lines
                           if not line.startswith("import time:"))


def main(command):
    # an interpreter's -m run reports each row's modules, counted past what
    # a bare start of the same interpreter loads
    traced = command[1:2] == ["-m"]
    if traced:
        start, _ = _imports(subprocess.run(
            [command[0], "-X", "importtime", "-c", "pass"],
            capture_output=True, text=True, timeout=TIMEOUT).stderr)
        command = [command[0], "-X", "importtime", *command[1:]]
    failed = 0
    for case in CASES:
        try:
            done = subprocess.run([*command, *case.argv], capture_output=True,
                                  input=case.stdin or b"", timeout=TIMEOUT)
        except subprocess.TimeoutExpired:
            problem = f"{case.name}: still running after {TIMEOUT} s"
        else:
            stderr, loaded = done.stderr.decode(), None
            if traced:
                loaded, stderr = _imports(stderr)
                loaded -= start
            problem = mismatch(case, done.returncode, done.stdout.decode(),
                               stderr, loaded)
        if problem:
            failed += 1
            print(problem, file=sys.stderr)
    print(f"{len(CASES) - failed} of {len(CASES)} CLI cases pass")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] or [sys.executable, "-m", "cubiquity.cli"]))
