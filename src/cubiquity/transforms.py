"""Subset rewrites: projections, double projections, contractions.

Each rewrite removes vectors and deletes the coordinates they exclusively
occupied, relabelling the remaining coordinates downward.  Steps record the
indices they acted on (relative to the subset they were applied to), so a
trace can be replayed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from operator import add, index
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import NotOrthogonal, PreconditionFailed
from .subsets import Subset, _Supports, _support_index, is_orthogonal

PROJECTION = "Projection"
DOUBLE_PROJECTION = "DoubleProjection"
CONTRACTION = "Contraction"

# (kind, coordinates, vectors), the order of a RewriteStep's fields
_Step = tuple[str, tuple[int, ...], tuple[int, ...]]


class RewriteStep(NamedTuple):
    kind: str
    coordinates: tuple[int, ...]
    vectors: tuple[int, ...]
    result: Subset


def _delete_rows(rows: list[list], vector_indices: Iterable[int],
                 coordinate_indices: Iterable[int]) -> None:
    """Delete the given vectors and coordinates from rows, in place: the
    one routine that removes either."""
    for s in sorted(vector_indices, reverse=True):
        del rows[s]
    coordinates = sorted(coordinate_indices, reverse=True)
    for row in rows:
        for j in coordinates:
            del row[j]


def _delete(vectors: Iterable[Sequence[int]], vector_indices: Iterable[int],
            coordinate_indices: Iterable[int]) -> Subset:
    rows = list(map(list, vectors))
    _delete_rows(rows, vector_indices, coordinate_indices)
    return Subset._unchecked(tuple(map(tuple, rows)))


def _projection_failure(by_vector: _Supports, s: int) -> str | None:
    """Why vector s cannot be projected away, or None if it can."""
    support = by_vector[s]
    if len(support) != 1:
        return (f"vector {s} is supported on {len(support)} coordinates, "
                f"not 1")
    return None


def _double_projection_failure(subset: Subset, by_vector: _Supports,
                               by_coordinate: _Supports, i: int) -> str | None:
    """Why coordinate i carries no removable hyperbolic pair, or None."""
    users = by_coordinate[i]
    if len(users) != 2:
        return f"coordinate {i} is supported by {len(users)} vectors, not 2"
    s, t = users
    if abs(subset.vectors[s][i]) != 1 or abs(subset.vectors[t][i]) != 1:
        return f"coordinate {i} carries an entry of magnitude >= 2"
    if by_vector[s] != by_vector[t] or len(by_vector[s]) != 2:
        return (f"vectors {s} and {t} are not a hyperbolic pair on a "
                f"common coordinate pair")
    return None


def project(subset: Subset, s: int) -> Subset:
    """Remove a vector supported on a single coordinate, and that coordinate.

    Orthogonality makes the coordinate exclusive to the removed vector, so
    the other vectors are unchanged apart from the relabelling.
    """
    s = index(s)
    if not 0 <= s < subset.n:
        raise PreconditionFailed(f"vector s must lie in range({subset.n})")
    if not is_orthogonal(subset):
        raise NotOrthogonal("projection requires an orthogonal subset")
    by_vector = _support_index(subset)[0]
    failure = _projection_failure(by_vector, s)
    if failure is not None:
        raise PreconditionFailed(failure)
    return _delete(subset.vectors, (s,), by_vector[s])


def double_project(subset: Subset, i: int) -> Subset:
    """Remove the hyperbolic pair {e_i + e_j, e_i - e_j} at coordinate i.

    Coordinate i must be supported by exactly two vectors, both with entry
    +-1 there, and the pair must live (up to signs) on a common coordinate
    pair {i, j}.  Both coordinates are deleted.
    """
    i = index(i)
    if not 0 <= i < subset.n:
        raise PreconditionFailed(f"coordinate i must lie in range({subset.n})")
    if not is_orthogonal(subset):
        raise NotOrthogonal("double projection requires an orthogonal subset")
    by_vector, by_coordinate = _support_index(subset)
    failure = _double_projection_failure(subset, by_vector, by_coordinate, i)
    if failure is not None:
        raise PreconditionFailed(failure)
    s, t = by_coordinate[i]
    return _delete(subset.vectors, (s, t), by_vector[s])


def _reduce_plan(subset: Subset) -> list[_Step]:
    """The steps of trace_reduce, indexed in the input subset; raises
    before any step runs."""
    if not is_orthogonal(subset):
        raise NotOrthogonal("reduce requires an orthogonal subset")
    by_vector, by_coordinate = _support_index(subset)
    # the rewrites' own precondition checks, on the entry index
    plan = [(PROJECTION, by_vector[s], (s,)) for s in range(subset.n)
            if _projection_failure(by_vector, s) is None]
    plan += [(DOUBLE_PROJECTION, by_vector[by_coordinate[i][0]],
              by_coordinate[i]) for i in range(subset.n)
             if _double_projection_failure(subset, by_vector, by_coordinate,
                                           i) is None
             and by_vector[by_coordinate[i][0]][0] == i]
    return plan


def _replay(plan: list[_Step], rows: list[list]) -> Iterator[_Step]:
    """Delete each planned step's vectors and coordinates from rows, one
    list per vector, in place; after each step yield (kind, coordinates,
    vectors), relabelled downward past the earlier steps' deletions."""
    gone_vectors: list[int] = []
    gone_coordinates: list[int] = []
    for kind, coordinates, vectors in plan:
        now_vectors = tuple(s - bisect_left(gone_vectors, s)
                            for s in vectors)
        now_coordinates = tuple(j - bisect_left(gone_coordinates, j)
                                for j in coordinates)
        _delete_rows(rows, now_vectors, now_coordinates)
        yield kind, now_coordinates, now_vectors
        for s in vectors:
            insort(gone_vectors, s)
        for j in coordinates:
            insort(gone_coordinates, j)


def trace_reduce(subset: Subset) -> tuple[Subset, tuple[RewriteStep, ...]]:
    """Apply projections, then double projections, to exhaustion.

    Projections are preferred at each pass and indices are scanned in
    increasing order, so the trace is deterministic.  The final subset is
    empty, or has every vector supported on at least two coordinates and
    every two-vector coordinate carrying an entry of magnitude >= 2.

    No step can break orthogonality, or add, remove or change another
    step's candidate:

    - a vector supported on one coordinate is the only vector that uses
      it, since any other user would have a nonzero product with it;
    - a hyperbolic pair on coordinates {i, j} is likewise the only pair
      that uses i and j, since a third vector using either would have a
      nonzero product with the pair.

    So deleting those vectors and their coordinates changes no other norm,
    product, entry or support: the deleted coordinates belong only to the
    deleted vectors.  The support index of the input therefore fixes the
    whole trace.  It lists the projectable vectors in increasing order,
    then the hyperbolic pairs by their smaller coordinate (the scan meets
    it first, and the larger one goes with it).  Each step's indices are
    relabelled downward past those already deleted.

    Cost: one support index and one orthogonality check, both at entry.
    The check is one pass over the coordinates: each nonzero entry's
    square goes to its vector's norm and each product of two vectors
    that share coordinate j to that pair's sum, so it forms
    sum_j |users_j| (|users_j| + 1) / 2 products.  The steps
    then delete their vectors and coordinates from one list of rows in
    place, a few list deletions per surviving row, and each step's result
    is a snapshot of those rows taken at C speed.  ``project`` and
    ``double_project`` still check orthogonality on every call.
    """
    plan = _reduce_plan(subset)
    rows = list(map(list, subset.vectors))
    steps = tuple(
        RewriteStep(kind, coordinates, vectors,
                    Subset._unchecked(tuple(map(tuple, rows))))
        for kind, coordinates, vectors in _replay(plan, rows))
    return (steps[-1].result if steps else subset), steps


def reduce(subset: Subset) -> Subset:
    """Fully reduced form of the subset (see trace_reduce): the same plan,
    replayed over one list of rows, with one snapshot at the end."""
    plan = _reduce_plan(subset)
    if not plan:
        return subset
    rows = list(map(list, subset.vectors))
    for _ in _replay(plan, rows):
        pass
    return Subset._unchecked(tuple(map(tuple, rows)))


def contract(subset: Subset, i: int, s: int, t: int, u: int) -> Subset:
    """Three-vector rewrite dropping coordinate i.

    Vectors s and t (with opposite unit entries at i and mutual product -1)
    merge into their sum; vector u (unit entry at i, norm at least 3) loses
    its i-th entry.  Raises PreconditionFailed naming the violated clause.
    """
    i, s, t, u = map(index, (i, s, t, u))
    n = subset.n
    if n < 3:
        raise PreconditionFailed("contraction needs at least 3 vectors")
    if not all(0 <= k < n for k in (i, s, t, u)):
        raise PreconditionFailed(
            f"indices (i, s, t, u) = {(i, s, t, u)} must lie in range({n})")
    if len({s, t, u}) != 3:
        raise PreconditionFailed("vector indices s, t, u must be distinct")
    vecs = subset.vectors
    users = _support_index(subset)[1][i]
    if set(users) != {s, t, u}:
        # named by clause, not by index: the CLI's indices are 1-based
        raise PreconditionFailed(
            "coordinate i must be supported by exactly the vectors s, t "
            "and u")
    if sum(a * b for a, b in zip(vecs[s], vecs[t])) != -1:
        raise PreconditionFailed("vectors s and t must have product -1")
    if abs(vecs[s][i]) != 1 or vecs[s][i] != -vecs[t][i]:
        raise PreconditionFailed(
            "vectors s and t must have opposite unit entries at i")
    if abs(vecs[u][i]) != 1:
        raise PreconditionFailed("vector u must have a unit entry at i")
    if sum(x * x for x in vecs[u]) < 3:
        raise PreconditionFailed("vector u must have norm at least 3")

    # deleting coordinate i from every vector also truncates u
    merged = tuple(map(add, vecs[s], vecs[t]))
    survivors = [v for k, v in enumerate(vecs) if k not in (s, t, u)]
    return _delete(survivors + [merged, vecs[u]], (), (i,))

