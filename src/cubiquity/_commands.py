"""The subcommands other than ``check`` and ``hajos``, and the help tree.

``cubiquity.cli`` keeps the dispatch, the shared readers and writers,
``check`` and ``hajos`` and their arguments.  This module holds the other
eight commands and their arguments, every command's help line and
``build_parser``, the full parser tree that help and a missing or unknown
command print from.  ``cli.run`` imports it the first time one of these
commands, help or a missing or unknown command is called.  Each command
reads and writes through the helpers of ``cli``, and ``cli.run`` turns
what it raises into an exit code.  The module a command runs is read as
an attribute of the package on its first call; ``tests/cli_cases.py``
pins which modules each cold call loads.  Each JSON payload is one
f-string, as ``cli`` writes a verdict: ``str`` of an int, or of nested
lists of ints, is its JSON text.

``reduce`` streams its lines: the library plans the whole trace first, so
an input it refuses prints nothing, then replays the steps over rows of
``str(entry)`` text, each line splicing in the surviving rows; ``str`` of
an int is its JSON text.
"""

from __future__ import annotations

import cubiquity

from . import cli
from .cli import (
    EXIT_CUBIQUITOUS,
    EXIT_NEGATIVE,
    UsageError,
    _one_based,
    _read_rows,
    _status_exit,
)
from .formats import format_matrix
from .subsets import Subset, _identity_holds, stats

#: Each subcommand's help line, for the top-level help.
_HELP = {
    "check": "determinant gate (Hajos search at index 2^n), 1-2 triangle at "
             "a power-of-two index, then brute force within the cap",
    "wu": "Wu element and Wu obstruction",
    "stats": "subset support statistics",
    "hajos": "search for a Hajos basis",
    "classify": "block decomposition of an orthogonal subset",
    "torus": "rational-ball rule for torus-link sums",
    "reduce": "projection/double-projection trace as JSON lines",
    "contract": "apply one contraction (1-based indices)",
    "det4": "4x4 determinant formula / zero-solution table",
    "catalog": "print the 8x8 catalog blocks",
}


def _add_arguments(p: cli._Parser, name: str) -> None:
    """Add the arguments of ``name``, one of this module's subcommands, to
    its parser ``p``."""
    if name in ("wu", "stats", "classify", "reduce", "contract"):
        cli._add_matrix_arguments(
            p, formats=name not in ("reduce", "contract"))
    if name == "torus":
        p.add_argument("params", nargs="+", type=int,
                       help="half-twist counts (use -- before negatives)")
        p.add_argument("--format", choices=("json", "text"), default="text")
    elif name == "contract":
        p.add_argument("-i", "--coordinate", type=int, required=True)
        p.add_argument("--vectors", type=int, nargs=3, required=True,
                       metavar=("S", "T", "U"))
    elif name == "det4":
        # read as text and converted by cmd_det4: argparse hands the word
        # after an unknown option to this positional, and an int type would
        # report that word rather than the option
        p.add_argument("values", nargs="*")
        p.add_argument("--zeros", action="store_true",
                       help="print the zero-solution table as CSV")
        p.add_argument("--bound", type=int,
                       help="largest entry of the --zeros table (default 50)")
    elif name == "catalog":
        p.add_argument("--index", type=int, choices=(1, 2), default=None)


def build_parser() -> cli._Parser:
    """The full parser tree, which ``cli._parser`` builds for help and for a
    missing or unknown command."""
    parser = cli._Parser(
        prog="cubiquity",
        description="Decide, obstruct, and certify cubiquity of full-rank "
                    "sublattices of Z^n.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=cli._Parser)
    for name in cli._COMMANDS:
        cli._add_arguments(sub.add_parser(name, help=_HELP[name]), name)
    return parser


def _read_subset(args) -> Subset:
    # the reader gives n rows of n ints, so the columns need no check
    return Subset._unchecked(tuple(zip(*_read_rows(args))))


def cmd_wu(args) -> int:
    subset = _read_subset(args)
    wu, verdict = cubiquity.wu._wu_obstruction(subset)
    lhs, rhs = verdict.inequality
    if args.format == "json":
        print(f'{{"W": {list(wu.vector)}, "R_o": {_one_based(wu.odd)}, '
              f'"lhs": {lhs}, "rhs": {rhs}, '
              f'"status": "{verdict.status.value}"}}')
    else:
        print("# W: " + " ".join(str(k) for k in wu.vector))
        print("# R_o: " + " ".join(str(i) for i in _one_based(wu.odd)))
        print(f"# inequality: lhs={lhs} rhs={rhs}")
        print(f"# status: {verdict.status.value}")
    return _status_exit(verdict.status)


def cmd_stats(args) -> int:
    subset = _read_subset(args)
    st = stats(subset)
    holds = _identity_holds(subset, st)
    # every value but the flag is an int or nested lists of ints, whose str
    # is its JSON text; the text lines print the flag as Python does
    fields = [
        ("dimension", subset.n),
        ("norms", list(subset.norms)),
        ("excess", st.excess),
        ("counts", list(st.counts)),
        ("by_coordinate", [_one_based(e) for e in st.by_coordinate]),
        ("by_vector", [_one_based(v) for v in st.by_vector]),
        ("heavy", [_one_based(q) for q in st.heavy]),
    ]
    if args.format == "json":
        text = ", ".join([f'"{key}": {value}' for key, value in fields])
        print(f'{{{text}, "identity_holds": {"true" if holds else "false"}}}')
    else:
        for key, value in [*fields, ("identity_holds", holds)]:
            print(f"# {key}: {value}")
    return EXIT_CUBIQUITOUS


def cmd_classify(args) -> int:
    verdict, blocks = cubiquity.classify._classify_blocks(_read_subset(args))
    if args.format == "json":
        text = ", ".join([f'{{"coordinates": {_one_based(b.coordinates)}, '
                          f'"vectors": {_one_based(b.vectors)}, '
                          f'"kind": "{b.kind}"}}' for b in blocks.blocks])
        print(f'{{"blocks": [{text}], '
              f'"verdict": {cli._verdict_json(verdict)}}}')
    else:
        for b in blocks.blocks:
            print(f"# block kind={b.kind} coordinates="
                  f"{_one_based(b.coordinates)} vectors={_one_based(b.vectors)}")
        print(f"# status: {verdict.status.value}")
    return _status_exit(verdict.status)


def cmd_torus(args) -> int:
    bounds = cubiquity.classify.torus_sum_bounds_qball(args.params)
    word = "true" if bounds else "false"
    print(f'{{"bounds": {word}}}' if args.format == "json" else
          f"bounds: {word}")
    return EXIT_CUBIQUITOUS if bounds else EXIT_NEGATIVE


def _json_rows(rows) -> str:
    # rows of str(int) tokens, which are the ints' JSON text
    return "[" + ", ".join(["[" + ", ".join(r) + "]" for r in rows]) + "]"


def cmd_reduce(args) -> int:
    transforms = cubiquity.transforms
    subset = _read_subset(args)
    plan = transforms._reduce_plan(subset)
    # the steps stream over rows of entry text: each entry is rendered once
    rows = [list(map(str, v)) for v in subset.vectors]
    for kind, coordinates, vectors in transforms._replay(plan, rows):
        print(f'{{"kind": "{kind}", "coordinates": {_one_based(coordinates)}, '
              f'"vectors": {_one_based(vectors)}, '
              f'"result": {_json_rows(rows)}}}')
    print(f'{{"kind": "Reduced", "result": {_json_rows(rows)}}}')
    return EXIT_CUBIQUITOUS


def cmd_contract(args) -> int:
    transforms = cubiquity.transforms
    subset = _read_subset(args)
    n = subset.n
    if not 1 <= args.coordinate <= n:
        raise UsageError(f"coordinate {args.coordinate} is outside 1..{n}")
    for v in args.vectors:
        if not 1 <= v <= n:
            raise UsageError(f"vector {v} is outside 1..{n}")
    i = args.coordinate - 1
    s, t, u = (v - 1 for v in args.vectors)
    result = transforms.contract(subset, i, s, t, u)
    print(f'{{"kind": "{transforms.CONTRACTION}", '
          f'"coordinates": [{args.coordinate}], "vectors": {args.vectors}, '
          f'"result": {[list(v) for v in result.vectors]}}}')
    return EXIT_CUBIQUITOUS


def cmd_det4(args) -> int:
    classify = cubiquity.classify
    values = []
    for token in args.values:
        try:
            values.append(int(token))
        except ValueError:
            # argparse's own words for a bad value of type int
            raise UsageError(f"argument values: invalid int value: "
                             f"{token!r}") from None
    if args.zeros:
        if values:
            raise UsageError("--zeros takes no diagonal values")
        try:
            solutions = classify.det4_zero_solutions(
                50 if args.bound is None else args.bound)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print("a,b,c,d")
        for sol in solutions:
            print(",".join(str(v) for v in sol))
        return EXIT_CUBIQUITOUS
    if args.bound is not None:
        raise UsageError("--bound applies to --zeros only")
    if len(values) != 4:
        raise UsageError("det4 needs exactly four diagonal values")
    print(classify.det4_formula(*values))
    return EXIT_CUBIQUITOUS


def cmd_catalog(args) -> int:
    first, second = cubiquity.classify.catalog_blocks()
    if args.index == 1:
        print(format_matrix(first))
    elif args.index == 2:
        print(format_matrix(second))
    else:
        print("# catalog block 1")
        print(format_matrix(first))
        print("# catalog block 2")
        print(format_matrix(second))
    return EXIT_CUBIQUITOUS
