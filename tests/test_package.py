"""The package's lazy public API and the value semantics of its records."""

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


FRESH = """
import sys
import cubiquity
assert not [m for m in sys.modules if m.startswith("cubiquity.")], \\
    sorted(sys.modules)
from cubiquity import cli
assert cli.run is sys.modules["cubiquity.cli"].run
assert cubiquity.Subset is sys.modules["cubiquity.subsets"].Subset
"""


def test_fresh_import_loads_no_submodule_and_submodules_still_import():
    proc = subprocess.run(
        [sys.executable, "-c", FRESH], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60)
    assert proc.returncode == 0, proc.stderr


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
