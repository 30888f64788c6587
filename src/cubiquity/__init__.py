"""Exact-integer decision procedures for cubiquitous sublattices of Z^n.

A full-rank sublattice of Z^n is cubiquitous when it meets every translated
unit cube x + {0,1}^n.  The package provides exact lattice arithmetic, the
Wu obstruction, the determinant/Hajos criteria, subset rewrites, the
classification of orthogonal sublattices, a brute-force oracle that
grounds all of them, and ``decide``, which runs the determinant gate and
then the oracle under one resource cap.

Importing the package loads none of its submodules.  Each name in
``__all__`` is imported from its submodule on first use, so a program
pays only for the parts it calls: ``check`` and ``hajos`` on the command
line load ``errors``, ``lattice``, ``formats`` and ``obstructions``, and
the other subcommands add the module they run (see ``cubiquity.cli``).
"""

import importlib

__version__ = "0.1.0"

# Each public name and the submodule that defines it.  A name is imported
# on first access (PEP 562), so ``import cubiquity`` or a CLI call that
# never touches, say, ``classify`` does not load that module.
_SUBMODULE = {
    name: module
    for module, names in (
        ("errors", ("CubiquityError", "DimensionMismatch",
                    "MatrixFormatError", "MixedSigns", "NotNonAcute",
                    "NotOrthogonal", "PreconditionFailed", "ResourceLimit",
                    "SingularMatrix", "ZeroParameter")),
        ("lattice", ("DEFAULT_RESOURCE_CAP", "BasisMatrix", "contains",
                     "det", "direct_sum", "gram", "hnf")),
        ("subsets", ("Subset", "SubsetStats", "check_identity",
                     "is_non_acute", "is_orthogonal", "stats")),
        ("obstructions", ("CubiquityVerdict", "HajosBasis", "Status",
                          "WuData", "decide", "det_gate", "hajos_basis",
                          "is_cubiquitous_bruteforce", "wu_element",
                          "wu_obstruction", "wu_obstruction_orthogonal")),
        ("transforms", ("RewriteStep", "contract", "double_project",
                        "length_three_family", "project", "reduce",
                        "trace_reduce")),
        ("classify", ("Block", "BlockDecomposition", "catalog_blocks",
                      "classify_orthogonal", "decompose", "det4_formula",
                      "det4_zero_solutions", "torus_sum_bounds_qball")),
        ("formats", ("format_matrix", "parse_inline", "parse_matrix")),
    )
    for name in names
}

__all__ = sorted(_SUBMODULE)


def __getattr__(name: str):
    try:
        module = _SUBMODULE[name]
    except KeyError:
        raise AttributeError(
            f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
