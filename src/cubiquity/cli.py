"""Command-line front end.

Exit codes: 0 the lattice is cubiquitous (or the query succeeded),
1 not cubiquitous / obstructed / negative answer, 2 inconclusive (resource
cap exceeded, or the obstruction did not fire), 64 usage error, 65 input
error, 70 internal error (a bug), 74 output error (stdout closed, at the
start or by a reader that left early as ``head`` does, or not writable).
Verdicts and help go to stdout; errors go to stderr, never mixed.  Help
ends in ``run`` as a command does, so it exits 0, or 74 where stdout is
closed or not writable.

``check`` prints the verdict of the library's ``decide``.  Its brute-force
oracle is bounded by a resource cap (``--cap``, else
``$CUBIQUITY_RESOURCE_CAP``, else the library default); past it ``check``
exits 2.  The cap meters brute force only: the determinant gate and the
1-2 triangle at a power-of-two index decide at any size.  The Hajos
search takes at most n eliminations and has no cap, so ``hajos`` takes no
``--cap``.

A call builds only what it runs.  ``run`` builds the called subcommand's
parser alone (``_add_arguments``), once per process, and hands it the
arguments after the command name, so a call runs one argparse pass.  The
full tree, which ``_commands.build_parser`` builds from the same
function, is built only for help and for a missing or unknown command
(``_parser``), and prints what it always has.

A call compiles and loads only the code it runs: the rows of
``tests/cli_cases.py`` name the modules that each cold call must load and
must not load.  Each module loaded on demand is read as an attribute of
the package (see ``cubiquity``), which loads it on the first read.  This
module holds the dispatch, the shared readers and writers, ``check`` and
``hajos`` and their arguments.  The other eight subcommands, their help
lines and arguments and the full parser tree live in ``_commands``.  Run
as ``python -m cubiquity.cli``, this module is ``__main__`` and registers
itself as ``cubiquity.cli`` too, so ``_commands`` imports it rather than
a second copy.  No command imports ``json``: every JSON line, from a
verdict to a ``reduce`` step, is one f-string, since ``str`` of an int or
of nested lists of ints is its JSON text.  The matrix reader's rows go to
``BasisMatrix`` unchecked, as the reader has checked them.

The text output of ``check``, ``wu``, ``stats``, ``hajos``, ``classify``
and ``catalog`` starts every informational line with '#', so any matrix
they print re-parses from the full output stream; ``torus`` and ``det4``
print a bare answer.  Indices in JSON output are 1-based.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from typing import Optional, Sequence

import cubiquity

from .errors import CubiquityError
from .formats import format_matrix, parse_inline, parse_matrix
from .lattice import DEFAULT_RESOURCE_CAP, BasisMatrix
from .obstructions import (
    CubiquityVerdict,
    HajosBasis,
    Status,
    _hajos_rows,
    decide,
    hajos_basis,
)

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


class _HelpShown(SystemExit):
    """What argparse's exit raises once help is printed; ``run`` returns
    its code after the same stdout checks as any other call."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)

    def exit(self, status=0, message=None):
        raise _HelpShown(status)  # only help exits; errors raise above

    def print_help(self, file=None):
        # argparse's own writer falls back to stderr when stdout is closed
        # and swallows a failed write
        print(self.format_help(), end="", file=file)


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
            # a stdin closed at start holds no data lines, as an empty one
            text = "" if sys.stdin is None else sys.stdin.read()
        else:
            with open(args.file, "r", encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        # an unreadable or undecodable input is bad input; an OSError that
        # reaches run() is an output failure
        raise CubiquityError(str(exc)) from None
    return parse_matrix(text, args.rows_as_vectors)


def _read_basis(args) -> BasisMatrix:
    # the reader gives a tuple of n tuples of n ints, so the rows need no
    # second check
    return BasisMatrix(_read_rows(args), _trusted=True)


def _one_based(indices) -> list[int]:
    return [i + 1 for i in indices]


def _status_exit(status: Status) -> int:
    if status is Status.CUBIQUITOUS:
        return EXIT_CUBIQUITOUS
    if status is Status.INCONCLUSIVE:
        return EXIT_INCONCLUSIVE
    return EXIT_NEGATIVE


def _verdict_json(verdict: CubiquityVerdict) -> str:
    """``json.dumps(verdict.to_json_dict())`` in one f-string, with no dict
    to walk: ``str`` of a list of ints, or of lists of ints, is its JSON
    text already."""
    if verdict.inequality is None:
        inequality = "null"
    else:
        lhs, rhs = verdict.inequality
        inequality = f'{{"lhs": {lhs}, "rhs": {rhs}}}'
    witness = verdict.witness
    rows = _hajos_rows(verdict.hajos)
    return (f'{{"status": "{verdict.status.value}", '
            f'"witness": {"null" if witness is None else list(witness)}, '
            f'"inequality": {inequality}, '
            f'"hajos_basis": {"null" if rows is None else rows}}}')


def _emit_verdict(verdict: CubiquityVerdict, fmt: str) -> None:
    if fmt == "json":
        print(_verdict_json(verdict))
        return
    print(f"# status: {verdict.status.value}")
    if verdict.witness is not None:
        print("# witness: " + " ".join(str(v) for v in verdict.witness))
    if verdict.inequality is not None:
        lhs, rhs = verdict.inequality
        print(f"# inequality: lhs={lhs} rhs={rhs}")
    if verdict.hajos is not None:
        _print_hajos(verdict.hajos)


def _print_hajos(found: HajosBasis) -> None:
    order = " ".join(str(i) for i in _one_based(found.row_order))
    print(f"# hajos basis, row order {order}")
    print(format_matrix(found.matrix))


def cmd_check(args) -> int:
    basis = _read_basis(args)
    verdict = decide(basis, cap=_resource_cap(args))
    _emit_verdict(verdict, args.format)
    return _status_exit(verdict.status)


def cmd_hajos(args) -> int:
    basis = _read_basis(args)
    found = hajos_basis(basis)
    if args.format == "json":
        # one f-string, as _verdict_json writes a verdict
        if found:
            print(f'{{"hajos_basis": {_hajos_rows(found)}, '
                  f'"row_order": {_one_based(found.row_order)}}}')
        else:
            print('{"hajos_basis": null, "row_order": null}')
    elif found:
        _print_hajos(found)
    else:
        print("# absent")
    return EXIT_CUBIQUITOUS if found else EXIT_NEGATIVE


#: The subcommands, in the order of the top-level help.
_COMMANDS = ("check", "wu", "stats", "hajos", "classify", "torus", "reduce",
             "contract", "det4", "catalog")


def _add_matrix_arguments(p: _Parser, formats: bool = True) -> None:
    """Add the arguments of a subcommand that reads a matrix to its parser
    ``p``: the input and, with ``formats``, ``--format``."""
    p.add_argument("file", nargs="?", default=None,
                   help="matrix file ('-' for stdin)")
    p.add_argument("--matrix", default=None,
                   help="inline matrix, rows separated by ';'")
    p.add_argument("--rows-as-vectors", action="store_true",
                   help="treat input rows (not columns) as basis vectors")
    if formats:
        p.add_argument("--format", choices=("json", "text"), default="json")


def _add_arguments(p: _Parser, name: str) -> None:
    """Add subcommand ``name``'s arguments to its parser ``p``: check's and
    hajos's from here, the others' from ``_commands``."""
    if name not in ("check", "hajos"):
        cubiquity._commands._add_arguments(p, name)
        return
    _add_matrix_arguments(p)
    if name == "check":
        p.add_argument("--cap", type=int, default=None,
                       help="brute-force resource cap: refuse brute force "
                            "when n * |det| exceeds it; the other routes "
                            "are not metered "
                            f"(default ${CAP_ENV_VAR} or "
                            f"{DEFAULT_RESOURCE_CAP})")


@functools.cache
def _parser() -> _Parser:
    # built only for help and for a missing or unknown command; argparse
    # keeps no state between parse_args calls, so one tree serves them all
    return cubiquity._commands.build_parser()


@functools.cache
def _command_parser(name: str) -> _Parser:
    """The parser the full tree (``_parser``) gives subcommand ``name``,
    alone."""
    parser = _Parser(prog=f"cubiquity {name}")
    _add_arguments(parser, name)
    return parser


def _parse(argv: Sequence[str]) -> argparse.Namespace:
    """The Namespace ``_parser().parse_args(argv)`` gives, or its error,
    from the subcommand's parser alone when argv[0] names one.  The
    top-level parser would pass that parser everything after argv[0]
    anyway, '--' included, and its own options never match there."""
    if not argv or argv[0] not in _COMMANDS:
        return _parser().parse_args(argv)
    args = _command_parser(argv[0]).parse_args(argv[1:])
    args.command = argv[0]
    return args


def run(argv: Optional[Sequence[str]] = None) -> int:
    try:
        try:
            args = _parse(sys.argv[1:] if argv is None else argv)
        except _HelpShown as shown:
            code = shown.code
        else:
            # looked up at call time, so a rebound cmd_<name> takes effect
            name = f"cmd_{args.command}"
            command = globals().get(name) or getattr(cubiquity._commands, name)
            code = command(args)
        if sys.stdout is None:
            # the process started with file descriptor 1 closed, so print
            # wrote nothing
            raise OSError("stdout is closed")
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
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
    if code == EXIT_IOERR and sys.stdout is not None:
        # stdout is unusable: send what is left in its buffer to devnull,
        # so the flush at interpreter exit neither fails nor reports
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)


if __name__ == "__main__":
    # run as ``python -m cubiquity.cli``: this module is also cubiquity.cli,
    # so _commands, which imports that, shares its UsageError and helpers
    # rather than compiling and running a second copy of this file
    sys.modules.setdefault(__spec__.name, sys.modules[__name__])
    main()
