"""The 1-2 triangle as a fresh run of the lattice's greedy gives it.

It calls the private greedy of ``cubiquity.lattice``, so it lives here
rather than in ``helpers.py``, whose oracles share no code with the
library.
"""

from cubiquity.lattice import _cube_pick, _triangulate


def fresh_triangle(b):
    """`BasisMatrix._triangle` as one run of the greedy from the rows gives
    it, at a power-of-two index up to 2^n."""
    d = abs(b.det)
    if d & d - 1 or d > 2 ** b.n:
        return None
    cols, order, rest, _ = _triangulate(b.rows, _cube_pick)
    return None if rest else (cols, order)
