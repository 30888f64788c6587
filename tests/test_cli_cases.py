"""Every row of tests/cli_cases.py, run in process through cli.run and
through ``python -m cubiquity.cli``."""

import ast
import io
import sys
from pathlib import Path

import pytest

import cli_cases
from cli_cases import CASES, mismatch
from cubiquity.cli import run


@pytest.mark.parametrize("case", CASES, ids=[case.name for case in CASES])
def test_cli_case(case, capsys, monkeypatch):
    if case.stdin is not None:
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(
            io.BytesIO(case.stdin), encoding="utf-8"))
    code = run(list(case.argv))
    out, err = capsys.readouterr()
    assert mismatch(case, code, out, err) is None


def test_table_imports_nothing_from_the_package():
    # so the installed script is checked against the table alone
    tree = ast.parse((Path(__file__).parent / "cli_cases.py").read_text())
    modules = [alias.name for node in ast.walk(tree)
               if isinstance(node, ast.Import) for alias in node.names]
    modules += [node.module for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert modules and not [m for m in modules
                            if m.partition(".")[0] == "cubiquity"]


def test_table_through_python_m(monkeypatch, capsys):
    # run as __main__, cli must stay the one module that the lazily loaded
    # subcommands import, or a second UsageError class would exit 70
    src = Path(__file__).resolve().parent.parent / "src"
    monkeypatch.setenv("PYTHONPATH", str(src))
    code = cli_cases.main([sys.executable, "-m", "cubiquity.cli"])
    assert code == 0, capsys.readouterr().err
