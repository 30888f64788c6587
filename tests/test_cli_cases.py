"""Every row of tests/cli_cases.py, run in process through cli.run and
through ``python -m cubiquity.cli``, where its modules are checked too."""

import ast
import io
import sys
from pathlib import Path

import pytest

import cli_cases
import cubiquity
from cli_cases import CASES, mismatch
from cubiquity.cli import run


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, capsys, monkeypatch):
    monkeypatch.delenv(cli_cases.CAP_ENV_VAR, raising=False)
    for name, value in case.env:
        monkeypatch.setenv(name, value)
    if case.stdin is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(case.stdin), encoding="utf-8"))
    code = run(list(case.argv))
    out, err = capsys.readouterr()
    assert mismatch(case, code, out, err) is None


@pytest.mark.parametrize("module", ["cli_cases.py", "families.py"])
def test_table_imports_nothing_from_the_package(module):
    # so the installed script is checked against the table alone, and no
    # test input borrows from the code it checks or from its oracles
    tree = ast.parse((Path(__file__).parent / module).read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules if m.partition(".")[0]
                            in ("cubiquity", "helpers")]


def test_rows_load_every_lazily_loaded_module():
    # so a new lazily loaded module needs a row that runs it; no command
    # runs the membership functions, and none writes with json
    loads = {module for case in CASES for module in case.loads}
    skips = {module for case in CASES for module in case.skips}
    assert {f"cubiquity.{name}" for name in cubiquity._LAZY
            if name != "membership"} <= loads
    assert {"cubiquity.membership", "json"} <= skips


def test_table_through_python_m(monkeypatch, capsys):
    # each row's bytes and the modules its cold run loads; run as __main__,
    # cli must stay the one module that the lazily loaded subcommands
    # import, or a second UsageError class would exit 70
    src = Path(__file__).resolve().parent.parent / "src"
    monkeypatch.setenv("PYTHONPATH", str(src))
    code = cli_cases.main([sys.executable, "-m", "cubiquity.cli"])
    assert code == 0, capsys.readouterr().err


def test_a_hung_row_fails_that_row(monkeypatch, capsys):
    monkeypatch.setattr(cli_cases, "TIMEOUT", 0.5)
    monkeypatch.setattr(cli_cases, "CASES", CASES[:2])
    hang = [sys.executable, "-c", "import time; time.sleep(60)"]
    code = cli_cases.main(hang)
    assert code == 1
    assert capsys.readouterr().err.count("still running after 0.5 s") == 2
