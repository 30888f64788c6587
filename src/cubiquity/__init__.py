"""Exact-integer decision procedures for cubiquitous sublattices of Z^n.

A full-rank sublattice of Z^n is cubiquitous when it meets every translated
unit cube x + {0,1}^n.  The package provides exact lattice arithmetic, the
Wu obstruction, the determinant/Hajos criteria, subset rewrites, the
classification of orthogonal sublattices, a brute-force oracle that
grounds all of them, and ``decide``, which runs the determinant gate and
then the oracle under one resource cap.
"""

from .errors import (
    CubiquityError,
    DimensionMismatch,
    MatrixFormatError,
    MixedSigns,
    NotNonAcute,
    NotOrthogonal,
    PreconditionFailed,
    ResourceLimit,
    SingularMatrix,
    ZeroParameter,
)
from .lattice import (
    DEFAULT_RESOURCE_CAP,
    BasisMatrix,
    contains,
    det,
    direct_sum,
    gram,
    hnf,
)
from .subsets import (
    Subset,
    SubsetStats,
    check_identity,
    is_non_acute,
    is_orthogonal,
    stats,
)
from .obstructions import (
    CubiquityVerdict,
    HajosBasis,
    Status,
    WuData,
    decide,
    det_gate,
    hajos_basis,
    is_cubiquitous_bruteforce,
    wu_element,
    wu_obstruction,
    wu_obstruction_orthogonal,
)
from .transforms import (
    RewriteStep,
    contract,
    double_project,
    length_three_family,
    project,
    reduce,
    trace_reduce,
)
from .classify import (
    Block,
    BlockDecomposition,
    catalog_blocks,
    classify_orthogonal,
    decompose,
    det4_formula,
    det4_zero_solutions,
    torus_sum_bounds_qball,
)
from .formats import format_matrix, parse_inline, parse_matrix

__version__ = "0.1.0"

__all__ = [
    "BasisMatrix",
    "Block",
    "BlockDecomposition",
    "CubiquityError",
    "CubiquityVerdict",
    "DEFAULT_RESOURCE_CAP",
    "DimensionMismatch",
    "HajosBasis",
    "MatrixFormatError",
    "MixedSigns",
    "NotNonAcute",
    "NotOrthogonal",
    "PreconditionFailed",
    "ResourceLimit",
    "RewriteStep",
    "SingularMatrix",
    "Status",
    "Subset",
    "SubsetStats",
    "WuData",
    "ZeroParameter",
    "catalog_blocks",
    "check_identity",
    "classify_orthogonal",
    "contains",
    "contract",
    "decide",
    "decompose",
    "det",
    "det4_formula",
    "det4_zero_solutions",
    "det_gate",
    "direct_sum",
    "double_project",
    "format_matrix",
    "gram",
    "hajos_basis",
    "hnf",
    "is_cubiquitous_bruteforce",
    "is_non_acute",
    "is_orthogonal",
    "length_three_family",
    "parse_inline",
    "parse_matrix",
    "project",
    "reduce",
    "stats",
    "torus_sum_bounds_qball",
    "trace_reduce",
    "wu_element",
    "wu_obstruction",
    "wu_obstruction_orthogonal",
]
