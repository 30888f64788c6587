"""Command-line front end.

Exit codes: 0 the lattice is cubiquitous (or the query succeeded),
1 not cubiquitous / obstructed / negative answer, 2 inconclusive (resource
cap exceeded, or the obstruction did not fire), 64 usage error, 65 input
error, 70 internal error (a bug), 74 output error (stdout closed, as when
piped into ``head``, or not writable).  Verdicts go to stdout; errors go
to stderr, never mixed.

``check`` and ``hajos`` share one resource cap (``--cap``, else
``$CUBIQUITY_RESOURCE_CAP``, else the library default); past it they exit 2.
``check`` prints the verdict of the library's ``decide``.

The argument parser is built once per process, on the first call to
``run``, and reused by every later call; ``build_parser`` returns a fresh
one.

A subcommand loads only the modules it runs.  Importing this module loads
``errors``, ``lattice``, ``formats`` and ``obstructions``, which is all
that ``check`` and ``hajos`` need.  The other subcommands import their
module when called: ``subsets`` for ``wu`` and ``stats`` (and for every
subcommand that reads a subset), ``classify`` for ``classify``, ``torus``,
``det4`` and ``catalog``, and ``transforms`` for ``reduce`` and
``contract``.

In text mode every informational line starts with '#', so any matrix the
command prints can be re-parsed from the full output stream.  Indices in
JSON output are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import TYPE_CHECKING, Optional, Sequence

from .errors import CubiquityError, ResourceLimit
from .formats import format_matrix, parse_inline, parse_matrix
from .lattice import DEFAULT_RESOURCE_CAP, BasisMatrix
from .obstructions import (
    CubiquityVerdict,
    Status,
    decide,
    hajos_basis,
    wu_element,
    wu_obstruction,
)

if TYPE_CHECKING:
    from .subsets import Subset

EXIT_CUBIQUITOUS = 0
EXIT_NEGATIVE = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 64
EXIT_DATA = 65
EXIT_SOFTWARE = 70
EXIT_IOERR = 74

CAP_ENV_VAR = "CUBIQUITY_RESOURCE_CAP"


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _resource_cap(args) -> int:
    if args.cap is not None:
        cap = args.cap
    else:
        raw = os.environ.get(CAP_ENV_VAR, str(DEFAULT_RESOURCE_CAP))
        try:
            cap = int(raw)
        except ValueError:
            raise UsageError(
                f"{CAP_ENV_VAR} must be an integer, got {raw!r}") from None
    if cap < 1:
        raise UsageError("resource cap must be at least 1")
    return cap


def _read_rows(args):
    if args.matrix is not None and args.file is not None:
        raise UsageError("give either a file or --matrix, not both")
    if args.matrix is not None:
        return parse_inline(args.matrix, args.rows_as_vectors)
    if args.file is None:
        raise UsageError("an input file or --matrix is required")
    try:
        if args.file == "-":
            text = sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except OSError as exc:
        # an unreadable input is bad input; an OSError that reaches run()
        # is an output failure
        raise CubiquityError(str(exc)) from None
    return parse_matrix(text, args.rows_as_vectors)


def _read_basis(args) -> BasisMatrix:
    return BasisMatrix(_read_rows(args))


def _read_subset(args) -> Subset:
    from .subsets import Subset

    rows = _read_rows(args)
    n = len(rows)
    return Subset(tuple(rows[i][j] for i in range(n)) for j in range(n))


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _status_exit(status: Status) -> int:
    if status is Status.CUBIQUITOUS:
        return EXIT_CUBIQUITOUS
    if status is Status.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _emit_verdict(verdict: CubiquityVerdict, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(verdict.to_json_dict()))
        return
    print(f"# status: {verdict.status.value}")
    if verdict.witness is not None:
        print("# witness: " + " ".join(str(v) for v in verdict.witness))
    if verdict.inequality is not None:
        lhs, rhs = verdict.inequality
        print(f"# inequality: lhs={lhs} rhs={rhs}")
    if verdict.hajos is not None:
        order = " ".join(str(i) for i in _one_based(verdict.hajos.row_order))
        print(f"# hajos basis, row order {order}")
        print(format_matrix(verdict.hajos.matrix))


def cmd_check(args) -> int:
    basis = _read_basis(args)
    verdict = decide(basis, cap=_resource_cap(args))
    _emit_verdict(verdict, args.format)
    return _status_exit(verdict.status)


def cmd_wu(args) -> int:
    subset = _read_subset(args)
    wu = wu_element(subset)
    verdict = wu_obstruction(subset)
    lhs, rhs = verdict.inequality
    payload = {
        "W": list(wu.vector),
        "R_o": _one_based(wu.odd),
        "lhs": lhs,
        "rhs": rhs,
        "status": verdict.status.value,
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        print("# W: " + " ".join(str(k) for k in wu.vector))
        print("# R_o: " + " ".join(str(i) for i in payload["R_o"]))
        print(f"# inequality: lhs={lhs} rhs={rhs}")
        print(f"# status: {verdict.status.value}")
    return _status_exit(verdict.status)


def cmd_stats(args) -> int:
    from .subsets import check_identity, stats

    subset = _read_subset(args)
    st = stats(subset)
    payload = {
        "dimension": subset.n,
        "norms": list(subset.norms),
        "excess": st.excess,
        "counts": list(st.counts),
        "by_coordinate": [_one_based(e) for e in st.by_coordinate],
        "by_vector": [_one_based(v) for v in st.by_vector],
        "heavy": [_one_based(q) for q in st.heavy],
        "identity_holds": check_identity(subset),
    }
    if args.format == "json":
        print(json.dumps(payload))
    else:
        for key, value in payload.items():
            print(f"# {key}: {value}")
    return EXIT_CUBIQUITOUS


def cmd_hajos(args) -> int:
    basis = _read_basis(args)
    found = hajos_basis(basis, cap=_resource_cap(args))
    if args.format == "json":
        payload = {
            "hajos_basis": [list(r) for r in found.matrix.rows]
            if found else None,
            "row_order": _one_based(found.row_order) if found else None,
        }
        print(json.dumps(payload))
    elif found:
        order = " ".join(str(i) for i in _one_based(found.row_order))
        print(f"# hajos basis, row order {order}")
        print(format_matrix(found.matrix))
    else:
        print("# absent")
    return EXIT_CUBIQUITOUS if found else EXIT_NEGATIVE


def cmd_classify(args) -> int:
    from .classify import classify_orthogonal, decompose

    subset = _read_subset(args)
    verdict = classify_orthogonal(subset)
    blocks = decompose(subset)
    if args.format == "json":
        payload = {
            "blocks": [
                {
                    "coordinates": _one_based(b.coordinates),
                    "vectors": _one_based(b.vectors),
                    "kind": b.kind,
                }
                for b in blocks.blocks
            ],
            "verdict": verdict.to_json_dict(),
        }
        print(json.dumps(payload))
    else:
        for b in blocks.blocks:
            print(f"# block kind={b.kind} coordinates="
                  f"{_one_based(b.coordinates)} vectors={_one_based(b.vectors)}")
        print(f"# status: {verdict.status.value}")
    return _status_exit(verdict.status)


def cmd_torus(args) -> int:
    from .classify import torus_sum_bounds_qball

    bounds = torus_sum_bounds_qball(args.params)
    if args.format == "json":
        print(json.dumps({"bounds": bounds}))
    else:
        print(f"bounds: {'true' if bounds else 'false'}")
    return EXIT_CUBIQUITOUS if bounds else EXIT_NEGATIVE


def _step_payload(step) -> dict:
    return {
        "kind": step.kind,
        "coordinates": _one_based(step.coordinates),
        "vectors": _one_based(step.vectors),
        "result": [list(v) for v in step.result.vectors],
    }


def cmd_reduce(args) -> int:
    from .transforms import trace_reduce

    subset = _read_subset(args)
    reduced, steps = trace_reduce(subset)
    for step in steps:
        print(json.dumps(_step_payload(step)))
    print(json.dumps({"kind": "Reduced",
                      "result": [list(v) for v in reduced.vectors]}))
    return EXIT_CUBIQUITOUS


def cmd_contract(args) -> int:
    from .transforms import contract

    subset = _read_subset(args)
    n = subset.n
    if not 1 <= args.coordinate <= n:
        raise UsageError(f"coordinate {args.coordinate} is outside 1..{n}")
    for v in args.vectors:
        if not 1 <= v <= n:
            raise UsageError(f"vector {v} is outside 1..{n}")
    i = args.coordinate - 1
    s, t, u = (v - 1 for v in args.vectors)
    result = contract(subset, i, s, t, u)
    print(json.dumps({
        "kind": "Contraction",
        "coordinates": [args.coordinate],
        "vectors": list(args.vectors),
        "result": [list(v) for v in result.vectors],
    }))
    return EXIT_CUBIQUITOUS


def cmd_det4(args) -> int:
    from .classify import det4_formula, det4_zero_solutions

    if args.zeros:
        if args.values:
            raise UsageError("--zeros takes no diagonal values")
        try:
            solutions = det4_zero_solutions(args.bound)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        print("a,b,c,d")
        for sol in solutions:
            print(",".join(str(v) for v in sol))
        return EXIT_CUBIQUITOUS
    if len(args.values) != 4:
        raise UsageError("det4 needs exactly four diagonal values")
    print(det4_formula(*args.values))
    return EXIT_CUBIQUITOUS


def cmd_catalog(args) -> int:
    from .classify import catalog_blocks

    first, second = catalog_blocks()
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


def build_parser() -> _Parser:
    parser = _Parser(
        prog="cubiquity",
        description="Decide, obstruct, and certify cubiquity of full-rank "
                    "sublattices of Z^n.")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    src = _Parser(add_help=False)
    src.add_argument("file", nargs="?", default=None,
                     help="matrix file ('-' for stdin)")
    src.add_argument("--matrix", default=None,
                     help="inline matrix, rows separated by ';'")
    src.add_argument("--rows-as-vectors", action="store_true",
                     help="treat input rows (not columns) as basis vectors")

    fmt_json = _Parser(add_help=False)
    fmt_json.add_argument("--format", choices=("json", "text"),
                          default="json")

    cap = _Parser(add_help=False)
    cap.add_argument("--cap", type=int, default=None,
                     help="resource cap in coordinate steps: n * 2^n for "
                          "the Hajos search, n * (2^n + |det|) for brute "
                          f"force (default ${CAP_ENV_VAR} or "
                          f"{DEFAULT_RESOURCE_CAP})")

    sub.add_parser("check", parents=[src, fmt_json, cap],
                   help="determinant gate (Hajos search at index 2^n), "
                        "then brute force, within the cap")

    sub.add_parser("wu", parents=[src, fmt_json],
                   help="Wu element and Wu obstruction")

    sub.add_parser("stats", parents=[src, fmt_json],
                   help="subset support statistics")

    sub.add_parser("hajos", parents=[src, fmt_json, cap],
                   help="search for a Hajos basis within the cap")

    sub.add_parser("classify", parents=[src, fmt_json],
                   help="block decomposition of an orthogonal subset")

    p = sub.add_parser("torus",
                       help="rational-ball rule for torus-link sums")
    p.add_argument("params", nargs="+", type=int,
                   help="half-twist counts (use -- before negatives)")
    p.add_argument("--format", choices=("json", "text"), default="text")

    sub.add_parser("reduce", parents=[src],
                   help="projection/double-projection trace as JSON lines")

    p = sub.add_parser("contract", parents=[src],
                       help="apply one contraction (1-based indices)")
    p.add_argument("-i", "--coordinate", type=int, required=True)
    p.add_argument("--vectors", type=int, nargs=3, required=True,
                   metavar=("S", "T", "U"))

    p = sub.add_parser("det4",
                       help="4x4 determinant formula / zero-solution table")
    p.add_argument("values", nargs="*", type=int)
    p.add_argument("--zeros", action="store_true",
                   help="print the zero-solution table as CSV")
    p.add_argument("--bound", type=int, default=50)

    p = sub.add_parser("catalog", help="print the 8x8 catalog blocks")
    p.add_argument("--index", type=int, choices=(1, 2), default=None)

    return parser


@functools.cache
def _parser() -> _Parser:
    # built on the first run, so importing the module stays cheap;
    # argparse keeps no state between parse_args calls, so one tree
    # serves every call
    return build_parser()


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
        # looked up at call time, so a rebound cmd_<name> takes effect
        code = globals()[f"cmd_{args.command}"](args)
        if sys.stdout is not None:
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ResourceLimit as exc:
        print(f"inconclusive: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE
    except CubiquityError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except BrokenPipeError:
        # the reader left early, as in `cubiquity ... | head`
        return EXIT_IOERR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IOERR
    except Exception as exc:
        # a bug must not exit 1, which reads as "not cubiquitous"
        print(f"error: internal error: {type(exc).__name__}: {exc}",
              file=sys.stderr)
        return EXIT_SOFTWARE


def main() -> None:
    code = run(sys.argv[1:])
    if code == EXIT_IOERR:
        # stdout is unusable: send what is left in its buffer to devnull,
        # so the flush at interpreter exit neither fails nor reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    main()
