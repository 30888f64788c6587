"""The traced benchmark's wrappers still find what they name.

``bench/spans.py`` wraps each of its ``TARGETS`` by module path, and
``Tracer.install`` rebinds a callable only in the modules of the package
already loaded, so a name moved out of its module, or a module that a call
loads lazily, would leave a span group silently empty.  Each check runs in
a fresh interpreter, as the benchmark does.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

RESOLVE = """
import importlib, sys
sys.path.insert(0, sys.argv[1])
from spans import TARGETS

for group, module, attr in TARGETS:
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner) or hasattr(owner, "func"), (module, attr)
print(len(TARGETS))
"""

TRACED_WU = """
import contextlib, io, sys
sys.path.insert(0, sys.argv[1])
from spans import Tracer
from cubiquity import cli

argv = ["wu", "--matrix", "1 1 0; 1 -1 0; 0 0 2"]


def call():
    with contextlib.redirect_stdout(io.StringIO()) as out:
        return cli.run(argv), out.getvalue()


untraced = call()  # loads the modules the tracer then wraps, as bench does
tracer = Tracer()
tracer.install()
try:
    tracer.begin_op()
    traced = call()
finally:
    tracer.uninstall()
totals = tracer.layer_totals()
print(repr({"same": traced == untraced, "code": traced[0],
            "calls": {group: entry["calls"]
                      for group, entry in totals.items()}}))
"""


def _bench_child(script):
    return subprocess.run(
        [sys.executable, "-c", script, str(ROOT / "bench")],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=str(ROOT / "src")))


def test_every_target_resolves_from_a_fresh_import():
    proc = _bench_child(RESOLVE)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) > 0


def test_traced_wu_call_records_a_wu_span():
    proc = _bench_child(TRACED_WU)
    assert proc.returncode == 0, proc.stderr
    result = ast.literal_eval(proc.stdout)
    assert result["same"] and result["code"] in (1, 2)
    assert result["calls"]["cli.run"] == 1
    assert result["calls"]["obstructions.wu"] == 1
    assert result["calls"]["subsets.predicates"] == 1
