"""A digest of the CLI's output on every benchmark plan input.

    python tests/plan_digest.py SRC [SEED ...] [--count NAME ...]

Imports ``cubiquity`` from the directory SRC and runs ``cli.run`` in
process on every input that ``bench/workloads.py`` plans for the four
workloads and the given seeds (default 1-5).  A command that reads a
matrix runs a second time with ``--rows-as-vectors``.  Per workload it
prints the number of calls and the sha256 of each call's argv, exit code,
stdout and stderr, in plan order; the last line does the same over every
workload.  ``--count NAME`` also prints how many times the function NAME
ran per workload: it is found in the module of the package that defines
it and counted under every name a module of the package binds it to.

Two trees answer alike, byte for byte, on these inputs iff they print the
same lines.  To compare a change with its parent, export the parent into
a directory of its own (``git archive``) and run, from the changed tree:

    python tests/plan_digest.py PARENT/src 1 2 3 4 5
    python tests/plan_digest.py src 1 2 3 4 5

The plans are read from this checkout's ``bench/workloads.py``, which
imports nothing from ``cubiquity``, so both trees see the same inputs.
"""

import argparse
import contextlib
import hashlib
import importlib
import io
import pkgutil
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def counted(name):
    """Wrap the package's function ``name`` wherever the package binds it;
    returns the one-element list its calls add to."""
    modules = [(module_name, mod) for module_name, mod in sys.modules.items()
               if module_name.partition(".")[0] == "cubiquity"]
    for module_name, mod in modules:
        original = getattr(mod, name, None)
        if getattr(original, "__module__", None) == module_name:
            break
    else:
        sys.exit(f"plan_digest.py: no module of cubiquity defines {name}")
    seen = [0]

    def wrapper(*args, **kwargs):
        seen[0] += 1
        return original(*args, **kwargs)

    for _, mod in modules:
        if getattr(mod, name, None) is original:
            setattr(mod, name, wrapper)
    return seen


def calls(cases):
    """The argv lists of a plan: each case, then again with
    --rows-as-vectors if it reads a matrix."""
    for case in cases:
        yield case.argv()
        if case.rows is not None:
            yield case.argv() + ["--rows-as-vectors"]


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="digest of cli.run over the benchmark plan inputs")
    parser.add_argument("src", help="directory that holds cubiquity/")
    parser.add_argument("seeds", nargs="*", type=int,
                        default=[1, 2, 3, 4, 5])
    parser.add_argument("--count", nargs="+", default=[], metavar="NAME",
                        help="functions of the package to count")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(Path(args.src).resolve()), str(BENCH)]
    import cubiquity
    from cubiquity import cli

    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave bench/ as it is
    import workloads
    sys.dont_write_bytecode = dont_write

    # import every module, those the commands load lazily too, so --count
    # patches them all
    for module in pkgutil.iter_modules(cubiquity.__path__):
        importlib.import_module(f"cubiquity.{module.name}")
    counts = {name: counted(name) for name in args.count}
    total, total_calls = hashlib.sha256(), 0
    for workload in workloads.WORKLOADS:
        digest, made = hashlib.sha256(), 0
        for seen in counts.values():
            seen[0] = 0
        for seed in args.seeds:
            for call in calls(workloads.plan(workload, seed)):
                out, err = io.StringIO(), io.StringIO()
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = cli.run(call)
                record = repr((call, code, out.getvalue(),
                               err.getvalue())).encode()
                digest.update(record)
                total.update(record)
                made += 1
        total_calls += made
        extra = "".join(f" {name}={seen[0]}" for name, seen in counts.items())
        print(f"{workload} calls={made} sha256={digest.hexdigest()}{extra}")
    print(f"all calls={total_calls} sha256={total.hexdigest()}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
