"""The Wu obstruction of the paper, for non-acute subsets.

The Wu element of a subset is the sum of its vectors.  A non-acute subset
whose Wu element has squared length above 4n - 3|odd coordinates| spans a
lattice that is not cubiquitous; for orthogonal subsets the same test
reads as the norm excess against n - 3|odd coordinates|.  The obstruction
is one-directional: it returns Obstructed or Inconclusive, never
Cubiquitous.

Only the ``wu`` subcommand loads this module, so it sits apart from
``obstructions``.  It imports ``subsets`` when it loads: the ``wu``
command's module has loaded that already.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import NotNonAcute, NotOrthogonal
from .lattice import Vector
from .obstructions import CubiquityVerdict, Status
from .subsets import Subset, _support_index, is_non_acute, is_orthogonal


class WuData(NamedTuple):
    """The Wu element (sum of the subset's vectors) and its parity pattern.

    ``vector`` holds the coordinates of the sum; ``odd``, ``even_nonzero``
    and ``zero`` partition the coordinate indices by the parity of the
    corresponding entry.
    """

    vector: Vector
    odd: tuple[int, ...]
    even_nonzero: tuple[int, ...]
    zero: tuple[int, ...]


def wu_element(subset: Subset) -> WuData:
    """Sum of the subset's vectors and the parity partition of its entries.

    Each vector is added over its support, so only nonzero entries are
    read."""
    total = [0] * subset.n
    for v, support in zip(subset.vectors, _support_index(subset)[0]):
        for j in support:
            total[j] += v[j]
    odd = tuple(j for j, k in enumerate(total) if k % 2)
    even_nonzero = tuple(j for j, k in enumerate(total) if k and k % 2 == 0)
    zero = tuple(j for j, k in enumerate(total) if k == 0)
    return WuData(tuple(total), odd, even_nonzero, zero)


def wu_obstruction(subset: Subset) -> CubiquityVerdict:
    """Obstruct cubiquity of a non-acute subset via its Wu element.

    Obstructed when the squared length of the Wu element strictly exceeds
    4n - 3*(number of odd coordinates); Inconclusive otherwise.  The
    obstruction is one-directional, so Cubiquitous is never returned.
    """
    return _wu_obstruction(subset)[1]


def _wu_obstruction(subset: Subset) -> tuple[WuData, CubiquityVerdict]:
    if not is_non_acute(subset):
        raise NotNonAcute("wu_obstruction requires a non-acute subset")
    wu = wu_element(subset)
    lhs = sum(k * k for k in wu.vector)
    rhs = 4 * subset.n - 3 * len(wu.odd)
    status = Status.OBSTRUCTED if lhs > rhs else Status.INCONCLUSIVE
    return wu, CubiquityVerdict(status, inequality=(lhs, rhs))


def wu_obstruction_orthogonal(subset: Subset) -> CubiquityVerdict:
    """Wu obstruction specialised to orthogonal subsets.

    Fires when the norm excess strictly exceeds n - 3*(number of odd Wu
    coordinates).  For orthogonal subsets the squared length of the Wu
    element equals the sum of the norms, so this agrees with
    wu_obstruction on every orthogonal input.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal(
            "wu_obstruction_orthogonal requires an orthogonal subset")
    wu = wu_element(subset)
    lhs = sum(subset.norms) - 3 * subset.n
    rhs = subset.n - 3 * len(wu.odd)
    status = Status.OBSTRUCTED if lhs > rhs else Status.INCONCLUSIVE
    return CubiquityVerdict(status, inequality=(lhs, rhs))
