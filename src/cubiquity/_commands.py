"""The subcommands other than ``check`` and ``hajos``.

``cubiquity.cli`` keeps the parsers, the dispatch, the shared readers and
writers, ``check`` and ``hajos``, and ``cli.run`` imports this module the
first time one of these commands is called, so a ``check`` or ``hajos``
call neither compiles nor loads it.  Each command reads and writes through
the helpers of ``cli``, and ``cli.run`` turns what it raises into an exit
code.  ``cli._json`` is looked up at call time, as ``cli.run`` looks up
each ``cmd_<name>``.

``reduce`` streams its lines: the library plans the whole trace first, so
an input it refuses prints nothing, then replays the steps over rows of
``str(entry)`` text, each line splicing in the surviving rows; ``str`` of
an int is its JSON text.
"""

from __future__ import annotations

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
from .obstructions import _wu_obstruction
from .subsets import Subset, _identity_holds, stats


def _read_subset(args) -> Subset:
    # the reader gives n rows of n ints, so the columns need no check
    return Subset._unchecked(tuple(zip(*_read_rows(args))))


def cmd_wu(args) -> int:
    subset = _read_subset(args)
    wu, verdict = _wu_obstruction(subset)
    lhs, rhs = verdict.inequality
    payload = {
        "W": list(wu.vector),
        "R_o": _one_based(wu.odd),
        "lhs": lhs,
        "rhs": rhs,
        "status": verdict.status.value,
    }
    if args.format == "json":
        print(cli._json(payload))
    else:
        print("# W: " + " ".join(str(k) for k in wu.vector))
        print("# R_o: " + " ".join(str(i) for i in payload["R_o"]))
        print(f"# inequality: lhs={lhs} rhs={rhs}")
        print(f"# status: {verdict.status.value}")
    return _status_exit(verdict.status)


def cmd_stats(args) -> int:
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
        "identity_holds": _identity_holds(subset, st),
    }
    if args.format == "json":
        print(cli._json(payload))
    else:
        for key, value in payload.items():
            print(f"# {key}: {value}")
    return EXIT_CUBIQUITOUS


def cmd_classify(args) -> int:
    from .classify import _classify_blocks

    verdict, blocks = _classify_blocks(_read_subset(args))
    if args.format == "json":
        # one f-string per block: on a list of small dicts _json takes two
        # to four times what json.dumps does, and this about as much
        text = ", ".join([f'{{"coordinates": {_one_based(b.coordinates)}, '
                          f'"vectors": {_one_based(b.vectors)}, '
                          f'"kind": "{b.kind}"}}' for b in blocks.blocks])
        print(f'{{"blocks": [{text}], '
              f'"verdict": {cli._json(verdict.to_json_dict())}}}')
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
        print(cli._json({"bounds": bounds}))
    else:
        print(f"bounds: {'true' if bounds else 'false'}")
    return EXIT_CUBIQUITOUS if bounds else EXIT_NEGATIVE


def _json_rows(rows) -> str:
    # rows of str(int) tokens, which are the ints' JSON text
    return "[" + ", ".join(["[" + ", ".join(r) + "]" for r in rows]) + "]"


def cmd_reduce(args) -> int:
    from .transforms import _reduce_plan, _replay

    subset = _read_subset(args)
    plan = _reduce_plan(subset)
    # the steps stream over rows of entry text: each entry is rendered once
    rows = [list(map(str, v)) for v in subset.vectors]
    for kind, coordinates, vectors in _replay(plan, rows):
        print(f'{{"kind": "{kind}", "coordinates": {_one_based(coordinates)}, '
              f'"vectors": {_one_based(vectors)}, '
              f'"result": {_json_rows(rows)}}}')
    print(f'{{"kind": "Reduced", "result": {_json_rows(rows)}}}')
    return EXIT_CUBIQUITOUS


def cmd_contract(args) -> int:
    from .transforms import CONTRACTION, contract

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
    print(cli._json({
        "kind": CONTRACTION,
        "coordinates": [args.coordinate],
        "vectors": list(args.vectors),
        "result": result.vectors,
    }))
    return EXIT_CUBIQUITOUS


def cmd_det4(args) -> int:
    from .classify import det4_formula, det4_zero_solutions

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
            solutions = det4_zero_solutions(
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
    print(det4_formula(*values))
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
