"""The package's lazy public API and the value semantics of its records."""

import ast
import copy
import importlib
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import cubiquity
from cubiquity import (
    BasisMatrix,
    Block,
    BlockDecomposition,
    CubiquityVerdict,
    DimensionMismatch,
    HajosBasis,
    RewriteStep,
    Status,
    Subset,
    SubsetStats,
    WuData,
)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_every_public_name_is_its_submodules_object():
    for name in cubiquity.__all__:
        module = importlib.import_module(
            f"cubiquity.{cubiquity._SUBMODULE[name]}")
        assert getattr(cubiquity, name) is getattr(module, name), name


def test_dir_lists_every_public_name():
    assert set(cubiquity.__all__) <= set(dir(cubiquity))


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        cubiquity.no_such_name
    assert not hasattr(cubiquity, "wu_preserved")


def test_star_import_binds_every_name():
    namespace = {}
    exec("from cubiquity import *", namespace)
    for name in cubiquity.__all__:
        assert namespace[name] is getattr(cubiquity, name), name


# module ``wu`` took the public Wu names out of ``obstructions``, which
# every check loads; the benchmark's traced mode still names them there
MOVED = """
import sys
import cubiquity
from cubiquity import obstructions

assert "cubiquity.wu" not in sys.modules
for name in ("WuData", "wu_element", "wu_obstruction",
             "wu_obstruction_orthogonal"):
    value = getattr(obstructions, name)  # before the package's name
    assert value is getattr(sys.modules["cubiquity.wu"], name), name
    assert value is getattr(cubiquity, name), name
for name in ("no_such_name", "wu_preserved", "_wu_obstruction"):
    try:
        getattr(obstructions, name)
    except AttributeError as exc:
        assert str(exc) == ("module 'cubiquity.obstructions' has no "
                            f"attribute {name!r}"), exc
    else:
        raise AssertionError(name)
"""


def test_moved_names_resolve_at_their_old_paths():
    # in a fresh interpreter, so the first lookup runs the module's
    # __getattr__ rather than finding a name an earlier test bound
    proc = subprocess.run(
        [sys.executable, "-c", MOVED], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_oracles_share_no_code_with_the_library():
    # tests/helpers.py holds the independent oracles: each has its own few
    # lines, so it imports no private name of the package and reads no
    # private attribute (dunders aside)
    tree = ast.parse((Path(__file__).parent / "helpers.py").read_text())
    private = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = (node.module or "").split(".")
            if module[0] == "cubiquity":
                private += [name for name in module + [a.name for a in
                                                      node.names]
                            if name.startswith("_")]
        elif (isinstance(node, ast.Attribute) and node.attr.startswith("_")
              and not node.attr.endswith("__")):
            private.append(node.attr)
    assert private == []


def test_only_lattice_names_the_elimination():
    # the triangular forms have one owner: every other module reads them
    # through BasisMatrix, so no other module of src/ names the greedy
    owned = {"_triangulate", "_hajos_pick", "_cube_pick"}
    naming = set()
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = {getattr(node, "id", None), getattr(node, "attr", None)}
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names |= {alias.name for alias in node.names}
            if names & owned:
                naming.add(path.name)
    assert naming == {"lattice.py"}


#: The modules whose functions a call into the package runs.
CALLED = ("cli", "_commands", "lattice", "obstructions", "formats", "wu",
          "subsets", "classify", "transforms", "cosets", "packed",
          "membership")


def test_no_function_imports_on_each_call():
    # an import statement in a function body walks the import machinery on
    # every call; a module loaded on first use is read as an attribute of
    # the package, which the package's __getattr__ binds once
    importing = []
    for name in CALLED:
        tree = ast.parse((SRC / "cubiquity" / f"{name}.py").read_text())
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                importing += [f"{name}.{func.name}" for node in ast.walk(func)
                              if isinstance(node, (ast.Import,
                                                   ast.ImportFrom))]
    assert importing == []


LAZY = """
import sys
import cubiquity


def loaded():
    return [m for m in sys.modules if m.startswith("cubiquity.")]


assert loaded() == [], loaded()
assert not hasattr(cubiquity, "no_such_module")
assert loaded() == [], loaded()
from cubiquity import BasisMatrix, decide

basis = BasisMatrix([[1, 0], [0, 3]])  # index 3: brute force decides
assert "cubiquity.cosets" not in sys.modules
assert decide(basis).witness == (0, 1)
assert vars(cubiquity)["cosets"] is sys.modules["cubiquity.cosets"]
misses = []
hook = cubiquity.__getattr__
cubiquity.__getattr__ = lambda name: misses.append(name) or hook(name)
assert decide(basis).witness == (0, 1)
assert misses == [], misses
from cubiquity import cli
assert cli.run is sys.modules["cubiquity.cli"].run
"""


def test_lazy_submodules_load_once_as_package_attributes():
    # in a fresh interpreter, under -X importtime, which lists a module only
    # when the import statement's machinery loads it
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", LAZY],
        capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr
    listed = {line.rsplit("|", 1)[-1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"cubiquity.obstructions", "cubiquity.cosets"} <= listed, listed


def test_every_package_attribute_read_is_a_lazy_submodule():
    # a misspelt submodule would otherwise fail only on the rare path that
    # reads it
    reads = set()
    for path in sorted((SRC / "cubiquity").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "cubiquity"):
                reads.add(node.attr)
    assert "cosets" in reads
    assert reads - cubiquity._LAZY == {"_SUBMODULE"}


def test_plan_digest_covers_every_workload():
    # tests/plan_digest.py compares two trees' CLI output byte for byte; on
    # seed 1 it prints one line per workload and one for all, whose calls
    # add up, and it counts the eliminations each workload runs
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).parent / "plan_digest.py"),
         str(SRC), "1", "--count", "_triangulate"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == ""
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert [line[0] for line in lines] == [
        "scan", "hajos", "structure", "cold_cli", "all"]
    fields = [dict(f.split("=") for f in line[1:]) for line in lines]
    assert sum(int(f["calls"]) for f in fields[:4]) == int(fields[4]["calls"])
    assert [f["_triangulate"] for f in fields[:4]] == [
        "264", "118", "6", "112"]
    # and the bytes pinned here: a change to any output, exit code or
    # message of these calls fails
    assert fields[4]["sha256"] == \
        "e3c00452c85075bf726b4f5f639b9fffc1350544ab74b02630d36ed16f32aabd"


SUBSET = Subset([(1, 1), (1, -1)])
OTHER = Subset([(2, 0), (0, 1)])
BASIS = BasisMatrix([[2, 0], [1, 2]])
HAJOS = HajosBasis(BASIS, (0, 1))
BLOCK = Block((0,), (0,), "TwoTimes")

# (equal fields, a second set of fields that differs in one place)
RECORDS = [
    (Subset, ((SUBSET.vectors,), (OTHER.vectors,))),
    (WuData, (((2, 0), (), (0,), (1,)), ((2, 0), (), (0,), (0,)))),
    (HajosBasis, ((BASIS, (0, 1)), (BASIS, (1, 0)))),
    (CubiquityVerdict, ((Status.CUBIQUITOUS, None, None, HAJOS),
                        (Status.CUBIQUITOUS, None, None, None))),
    (SubsetStats, ((((0, 1),), ((0,),), ((), (0,)), (0, 1), ((), ()), -2),
                   (((0, 1),), ((0,),), ((), (0,)), (0, 1), ((), ()), -1))),
    (Block, (((0,), (0,), "TwoTimes"), ((0,), (0,), "Unit"))),
    (BlockDecomposition, (((BLOCK,),), ((BLOCK, BLOCK),))),
    (RewriteStep, (("Projection", (0,), (1,), SUBSET),
                   ("Projection", (0,), (1,), OTHER))),
]


@pytest.mark.parametrize("cls, fields", RECORDS,
                         ids=[cls.__name__ for cls, _ in RECORDS])
def test_record_value_semantics(cls, fields):
    same, different = fields
    a, b, c = cls(*same), cls(*same), cls(*different)
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert copy.deepcopy(a) == a == pickle.loads(pickle.dumps(a))
    field = cls.__match_args__[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(c, field))
    assert a == b


def test_record_defaults_and_methods():
    verdict = CubiquityVerdict(Status.INCONCLUSIVE)
    assert verdict == CubiquityVerdict(Status.INCONCLUSIVE, None, None,
                                       None, None)
    assert verdict.to_json_dict() == {"status": "Inconclusive",
                                      "witness": None, "inequality": None,
                                      "hajos_basis": None}
    assert BlockDecomposition((BLOCK,)).kinds == ("TwoTimes",)


def test_subset_normalizes_and_validates():
    subset = Subset(iter([[True, 0], (0, 2)]))
    assert subset.vectors == ((1, 0), (0, 2))
    assert type(subset.vectors[0][0]) is int
    assert subset == Subset(((1, 0), (0, 2)))
    assert repr(subset) == "Subset(vectors=((1, 0), (0, 2)))"
    assert Subset([]).n == 0
    with pytest.raises(DimensionMismatch):
        Subset([(1, 0), (0,)])
    with pytest.raises(DimensionMismatch):
        Subset([(1, 0, 0), (0, 1, 0)])
    with pytest.raises(TypeError):
        Subset([(1.0,)])
    with pytest.raises(AttributeError):
        del subset.vectors
    with pytest.raises(AttributeError):
        subset.extra = 1
