"""The 1-2 triangle as a fresh run of the lattice's greedy gives it.

It calls the private greedy of ``cubiquity.lattice``, so it lives here
rather than in ``helpers.py``, whose oracles share no code with the
library.
"""

from cubiquity.lattice import _cube_pick, _triangulate


def fresh_triangle(b, capped=False):
    """(columns, row order) of one run of the greedy from the rows, with
    `_cube_pick` and the determinant's swap cap where ``capped``, where it
    takes every coordinate with 1s and 2s on its diagonal, else None.

    Its pivots then multiply to |det|, so the index is a power of two up
    to 2^n.  Uncapped, it is `BasisMatrix._triangle`, the certificate that
    `decide` runs below 2^n; elsewhere the greedy can complete with a pivot
    of 2 times an odd number, and this refuses it."""
    cols, order, rest, _ = _triangulate(b.rows, _cube_pick, capped)
    if rest or any(cols[k][p] > 2 for k, p in enumerate(order)):
        return None
    return cols, order
