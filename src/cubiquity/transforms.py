"""Subset rewrites: projections, double projections, contractions.

Each rewrite removes vectors and deletes the coordinates they exclusively
occupied, relabelling the remaining coordinates downward.  Steps record the
indices they acted on (relative to the subset they were applied to), so a
trace can be replayed.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .errors import NotOrthogonal, PreconditionFailed
from .subsets import Subset, SubsetStats, is_orthogonal, stats

PROJECTION = "Projection"
DOUBLE_PROJECTION = "DoubleProjection"
CONTRACTION = "Contraction"


class RewriteStep(NamedTuple):
    kind: str
    coordinates: tuple[int, ...]
    vectors: tuple[int, ...]
    result: Subset


def _delete(subset: Subset, vector_indices: Iterable[int],
            coordinate_indices: Iterable[int]) -> Subset:
    drop_v = set(vector_indices)
    drop_c = set(coordinate_indices)
    keep = [j for j in range(subset.n) if j not in drop_c]
    return Subset(
        tuple(v[j] for j in keep)
        for i, v in enumerate(subset.vectors) if i not in drop_v)


def _projection_failure(st: SubsetStats, s: int) -> str | None:
    """Why vector s cannot be projected away, or None if it can."""
    support = st.by_vector[s]
    if len(support) != 1:
        return (f"vector {s} is supported on {len(support)} coordinates, "
                f"not 1")
    return None


def _double_projection_failure(subset: Subset, st: SubsetStats,
                               i: int) -> str | None:
    """Why coordinate i carries no removable hyperbolic pair, or None."""
    users = st.by_coordinate[i]
    if len(users) != 2:
        return f"coordinate {i} is supported by {len(users)} vectors, not 2"
    s, t = users
    if abs(subset.vectors[s][i]) != 1 or abs(subset.vectors[t][i]) != 1:
        return f"coordinate {i} carries an entry of magnitude >= 2"
    if st.by_vector[s] != st.by_vector[t] or len(st.by_vector[s]) != 2:
        return (f"vectors {s} and {t} are not a hyperbolic pair on a "
                f"common coordinate pair")
    return None


def project(subset: Subset, s: int) -> Subset:
    """Remove a vector supported on a single coordinate, and that coordinate.

    Orthogonality makes the coordinate exclusive to the removed vector, so
    the other vectors are unchanged apart from the relabelling.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal("projection requires an orthogonal subset")
    st = stats(subset)
    failure = _projection_failure(st, s)
    if failure is not None:
        raise PreconditionFailed(failure)
    return _delete(subset, (s,), st.by_vector[s])


def double_project(subset: Subset, i: int) -> Subset:
    """Remove the hyperbolic pair {e_i + e_j, e_i - e_j} at coordinate i.

    Coordinate i must be supported by exactly two vectors, both with entry
    +-1 there, and the pair must live (up to signs) on a common coordinate
    pair {i, j}.  Both coordinates are deleted.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal("double projection requires an orthogonal subset")
    st = stats(subset)
    failure = _double_projection_failure(subset, st, i)
    if failure is not None:
        raise PreconditionFailed(failure)
    s, t = st.by_coordinate[i]
    return _delete(subset, (s, t), st.by_vector[s])


def _next_step(subset: Subset) -> RewriteStep | None:
    # candidates are found with the rewrites' own precondition checks,
    # then applied through the public rewrite
    st = stats(subset)
    for s in range(subset.n):
        if _projection_failure(st, s) is None:
            return RewriteStep(PROJECTION, st.by_vector[s], (s,),
                               project(subset, s))
    for i in range(subset.n):
        if _double_projection_failure(subset, st, i) is None:
            s, t = st.by_coordinate[i]
            return RewriteStep(DOUBLE_PROJECTION, st.by_vector[s], (s, t),
                               double_project(subset, i))
    return None


def trace_reduce(subset: Subset) -> tuple[Subset, tuple[RewriteStep, ...]]:
    """Apply projections, then double projections, to exhaustion.

    Projections are preferred at each pass and indices are scanned in
    increasing order, so the trace is deterministic.  The final subset is
    empty, or has every vector supported on at least two coordinates and
    every two-vector coordinate carrying an entry of magnitude >= 2.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal("reduce requires an orthogonal subset")
    steps = []
    current = subset
    while True:
        step = _next_step(current)
        if step is None:
            return current, tuple(steps)
        steps.append(step)
        current = step.result


def reduce(subset: Subset) -> Subset:
    """Fully reduced form of the subset (see trace_reduce)."""
    return trace_reduce(subset)[0]


def contract(subset: Subset, i: int, s: int, t: int, u: int) -> Subset:
    """Three-vector rewrite dropping coordinate i.

    Vectors s and t (with opposite unit entries at i and mutual product -1)
    merge into their sum; vector u (unit entry at i, norm at least 3) loses
    its i-th entry.  Raises PreconditionFailed naming the violated clause.
    """
    n = subset.n
    if n < 3:
        raise PreconditionFailed("contraction needs at least 3 vectors")
    if not all(0 <= k < n for k in (i, s, t, u)):
        raise PreconditionFailed(
            f"indices (i, s, t, u) = {(i, s, t, u)} must lie in range({n})")
    if len({s, t, u}) != 3:
        raise PreconditionFailed("vector indices s, t, u must be distinct")
    vecs = subset.vectors
    users = stats(subset).by_coordinate[i]
    if set(users) != {s, t, u}:
        raise PreconditionFailed(
            f"coordinate {i} must be supported by exactly {{s, t, u}}, "
            f"got {set(users)}")
    if sum(a * b for a, b in zip(vecs[s], vecs[t])) != -1:
        raise PreconditionFailed("vectors s and t must have product -1")
    if abs(vecs[s][i]) != 1 or vecs[s][i] != -vecs[t][i]:
        raise PreconditionFailed(
            "vectors s and t must have opposite unit entries at i")
    if abs(vecs[u][i]) != 1:
        raise PreconditionFailed("vector u must have a unit entry at i")
    if sum(x * x for x in vecs[u]) < 3:
        raise PreconditionFailed("vector u must have norm at least 3")

    merged = tuple(a + b for a, b in zip(vecs[s], vecs[t]))
    truncated = tuple(
        x if j != i else 0 for j, x in enumerate(vecs[u]))
    survivors = [v for k, v in enumerate(vecs) if k not in (s, t, u)]
    keep = [j for j in range(n) if j != i]
    return Subset(
        tuple(v[j] for j in keep) for v in survivors + [merged, truncated])


def length_three_family(x: int) -> Subset:
    """The one-parameter subset {e1+e2, -e2+x*e3, e2-e1} in Z^3.

    Every member is non-acute, and the Wu obstruction fires exactly when
    |x| >= 3.  Larger subsets contract down to this family, which makes it
    a convenient probe for contraction experiments.
    """
    if x == 0:
        raise ValueError("the family needs a nonzero parameter")
    return Subset([(1, 1, 0), (0, -1, x), (-1, 1, 0)])
