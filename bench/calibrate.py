"""A fixed unit of pure-Python work that measures the machine's speed.

The benchmark runs on shared hosts whose speed drifts by up to 1.6x over
seconds to minutes, for every process alike.  ``chunk()`` runs before
every timed call and once after the last; each latency is then scaled by
``NOMINAL_S`` over the median time of the chunks next to it, which reports
it at a fixed machine speed.  A chunk does integer arithmetic, dict and
list allocation and the benchmark's own exact lattice arithmetic, the mix
of work the package does.  Nothing here imports ``cubiquity``, so no
change to the package moves a chunk's time.
"""

from __future__ import annotations

import statistics
import time

import oracle

# typical time of one chunk on the 2-core VM where the benchmark was
# written (Python 3, 2.1 GHz), so scaled times read close to wall time
NOMINAL_S = 0.0040
NEIGHBOURS = 2          # chunks on each side that set a call's speed

_M = [[3, -1, 2, 0, -2, 1, 1], [0, 2, -3, 1, 1, -1, 2],
      [1, 1, 0, -2, 3, 2, -1], [-2, 0, 1, 3, -1, 0, 2],
      [1, -3, 2, 1, 0, 2, -2], [2, 1, -1, 0, 2, -3, 1],
      [-1, 2, 3, -1, 1, 1, 0]]


def chunk() -> float:
    """Run the fixed work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    s = 0
    for i in range(12000):
        s += i * i % 7
    d = {}
    for i in range(6000):
        d[i * 7919 % 20011] = [i, (i, -i)]
    for _ in range(4):
        oracle.det(_M)
        oracle.column_hnf(_M)
    return time.perf_counter() - t0


def scales(chunks):
    """Speed scale for each of the calls between `chunks`.

    ``chunks`` holds len(calls) + 1 times: chunk i ran just before call i.
    Call i is scaled by NOMINAL_S over the median of the NEIGHBOURS
    chunks before it and the NEIGHBOURS after it.
    """
    out = []
    for i in range(len(chunks) - 1):
        near = chunks[max(0, i - NEIGHBOURS + 1):i + NEIGHBOURS + 1]
        out.append(NOMINAL_S / statistics.median(near))
    return out
