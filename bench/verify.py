"""Independent verifier: checks every CLI answer outside the timed region.

A verdict is checked against the ground truth of its case (from how the
input was built, or from ``oracle.py``), and its certificate is re-checked
with the benchmark's own arithmetic.  Any valid certificate is accepted,
not only the one today's code emits, so that a later change of route is
not counted as a failure.  Nothing here imports ``cubiquity``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

import oracle

EXIT = {"Cubiquitous": 0, "NotCubiquitous": 1, "Obstructed": 1,
        "Inconclusive": 2}
GOOD_KINDS = {"Unit", "TwoTimes", "Hyper2x2"}


@dataclass(frozen=True)
class Outcome:
    ok: bool
    inconclusive: bool = False
    # det_gate, hajos, bruteforce or cap_refused; wu and classify only if
    # a later route emits their certificates from `check`
    route: Optional[str] = None
    reason: str = ""


def fail(reason: str) -> Outcome:
    return Outcome(False, reason=reason)


def verify(case, code, stdout: str) -> Outcome:
    """Check one answer: exit code, status against the truth, certificate."""
    if code is None:
        return fail(f"raised: {stdout}")
    try:
        return CHECKS[case.command](case, code, stdout)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return fail(f"unreadable output: {exc!r}")


def _columns(rows):
    n = len(rows)
    return [[rows[i][j] for i in range(n)] for j in range(n)]


def _wu(vectors):
    n = len(vectors)
    w = [sum(v[j] for v in vectors) for j in range(n)]
    odd = [j for j in range(n) if w[j] % 2]
    return w, odd, sum(x * x for x in w), 4 * n - 3 * len(odd)


def _non_acute(vectors):
    n = len(vectors)
    g = [[sum(a * b for a, b in zip(u, v)) for v in vectors] for u in vectors]
    for i in range(n):
        off = [g[i][j] for j in range(n) if j != i]
        if g[i][i] < 1 or any(x > 0 for x in off) or g[i][i] < -sum(off):
            return False
    return True


def _check_hajos_basis(rows, h, order=None) -> bool:
    """h is a Hajos basis of the lattice with coordinates taken in `order`
    (0-based); without an order, search for one."""
    if not oracle.is_hajos_shape(h):
        return False
    if order is None:
        return oracle.find_row_order(rows, h) is not None
    if sorted(order) != list(range(len(rows))):
        return False
    return oracle.column_hnf([rows[i] for i in order]) == h


def check_check(case, code, stdout) -> Outcome:
    verdict = json.loads(stdout)
    status = verdict["status"]
    if EXIT.get(status) != code:
        return fail(f"exit {code} for status {status}")
    rows, truth = case.rows, case.truth
    n = len(rows)
    if status == "Inconclusive":
        return Outcome(True, inconclusive=True, route="cap_refused")
    if (status == "Cubiquitous") != truth["cubiquitous"]:
        return fail(f"status {status}, truth {truth['cubiquitous']}")
    if status == "Cubiquitous":
        if verdict["hajos_basis"] is None:
            return Outcome(True, route="bruteforce")
        if not _check_hajos_basis(rows, verdict["hajos_basis"]):
            return fail("Hajos basis does not re-check")
        return Outcome(True, route="hajos")
    if status == "Obstructed":
        ineq = verdict["inequality"]
        lhs, rhs = ineq["lhs"], ineq["rhs"]
        if lhs <= rhs:
            return fail("obstruction inequality does not hold")
        if (lhs, rhs) == (truth["det"], 2 ** n):
            return Outcome(True, route="det_gate")
        cols = _columns(rows)
        if _non_acute(cols) and _wu(cols)[2:] == (lhs, rhs):
            return Outcome(True, route="wu")
        return fail(f"inequality {lhs} > {rhs} certifies nothing")
    witness = verdict["witness"]
    if witness is None:
        # no certificate to re-check; the status matched the truth
        return Outcome(True, route="hajos" if truth["det"] == 2 ** n
                       else "classify")
    if len(witness) != n or oracle.Lattice(rows).cube_covered(witness):
        return fail(f"witness {witness} meets the lattice")
    return Outcome(True, route="bruteforce")


def check_hajos(case, code, stdout) -> Outcome:
    if code == 2 and not stdout:
        return Outcome(True, inconclusive=True, route="cap_refused")
    payload = json.loads(stdout)
    h = payload["hajos_basis"]
    exists = case.truth["first_order"] is not None
    if (h is not None) != (code == 0) or code not in (0, 1):
        return fail(f"exit {code} for basis {h}")
    if (h is not None) != exists:
        return fail(f"basis found {h is not None}, truth {exists}")
    if h is not None:
        order = [i - 1 for i in payload["row_order"]]
        if not _check_hajos_basis(case.rows, h, order):
            return fail("Hajos basis does not re-check")
    return Outcome(True, route="hajos")


def _blocks_valid(vectors, blocks) -> bool:
    """The blocks partition coordinates and vectors, and every vector of a
    block is supported inside that block's coordinates."""
    n = len(vectors)
    coords = sorted(c for b in blocks for c in b["coordinates"])
    vecs = sorted(v for b in blocks for v in b["vectors"])
    if coords != list(range(1, n + 1)) or vecs != list(range(1, n + 1)):
        return False
    for b in blocks:
        inside = {c - 1 for c in b["coordinates"]}
        for v in b["vectors"]:
            if any(x and j not in inside
                   for j, x in enumerate(vectors[v - 1])):
                return False
    return True


def check_classify(case, code, stdout) -> Outcome:
    payload = json.loads(stdout)
    status = payload["verdict"]["status"]
    if EXIT.get(status) != code:
        return fail(f"exit {code} for status {status}")
    if (status == "Cubiquitous") != case.truth["cubiquitous"]:
        return fail(f"status {status}, truth {case.truth['cubiquitous']}")
    blocks = payload["blocks"]
    if not _blocks_valid(_columns(case.rows), blocks):
        return fail("blocks do not partition the subset")
    expected = sorted(k if k in GOOD_KINDS else "Other"
                      for k in case.truth["kinds"])
    if sorted(b["kind"] for b in blocks) != expected:
        return fail("block kinds differ from the construction")
    return Outcome(True)


def expected_stats(vectors) -> dict:
    n = len(vectors)
    by_coord = [[i for i in range(n) if vectors[i][j]] for j in range(n)]
    by_vec = [[j for j in range(n) if vectors[i][j]] for i in range(n)]
    classes = [[j for j in range(n) if len(by_coord[j]) == m]
               for m in range(n + 1)]
    norms = [sum(x * x for x in v) for v in vectors]
    heavy = [[j for j in cls if any(abs(vectors[i][j]) >= 2
                                    for i in by_coord[j])]
             for cls in classes]
    return {
        "dimension": n,
        "norms": norms,
        "excess": sum(norms) - 3 * n,
        "counts": [len(c) for c in classes],
        "by_coordinate": [[k + 1 for k in group] for group in by_coord],
        "by_vector": [[k + 1 for k in group] for group in by_vec],
        "heavy": [[k + 1 for k in group] for group in heavy],
        "identity_holds": True,
    }


def check_stats(case, code, stdout) -> Outcome:
    if code != 0:
        return fail(f"exit {code}")
    if json.loads(stdout) != expected_stats(_columns(case.rows)):
        return fail("statistics differ")
    return Outcome(True)


def check_wu(case, code, stdout) -> Outcome:
    payload = json.loads(stdout)
    w, odd, lhs, rhs = _wu(_columns(case.rows))
    status = "Obstructed" if lhs > rhs else "Inconclusive"
    expected = {"W": w, "R_o": [j + 1 for j in odd], "lhs": lhs,
                "rhs": rhs, "status": status}
    if payload != expected:
        return fail("Wu data differ")
    if EXIT[status] != code:
        return fail(f"exit {code} for status {status}")
    return Outcome(True, inconclusive=status == "Inconclusive")


def _delete(vectors, drop_vectors, drop_coords):
    return [[x for j, x in enumerate(v) if j not in drop_coords]
            for i, v in enumerate(vectors) if i not in drop_vectors]


def _rewrite(vectors, step):
    """Apply one logged step after checking its precondition."""
    vs = [i - 1 for i in step["vectors"]]
    cs = [j - 1 for j in step["coordinates"]]
    support = [{j for j, x in enumerate(v) if x} for v in vectors]
    if step["kind"] == "Projection":
        ok = len(vs) == 1 and support[vs[0]] == set(cs) and len(cs) == 1
    elif step["kind"] == "DoubleProjection":
        s, t = vs
        others = [i for i in range(len(vectors)) if i not in vs]
        ok = (len(cs) == 2 and support[s] == support[t] == set(cs)
              and all(abs(vectors[i][j]) == 1 for i in vs for j in cs)
              and not any(support[i] & set(cs) for i in others))
    else:
        ok = False
    return _delete(vectors, set(vs), set(cs)) if ok else None


def _reducible(vectors) -> bool:
    supports = [{j for j, x in enumerate(v) if x} for v in vectors]
    if any(len(sup) == 1 for sup in supports):
        return True
    for s, sup in enumerate(supports):
        for t in range(s + 1, len(vectors)):
            if len(sup) == 2 and supports[t] == sup:
                step = {"kind": "DoubleProjection", "vectors": [s + 1, t + 1],
                        "coordinates": [j + 1 for j in sorted(sup)]}
                if _rewrite(vectors, step) is not None:
                    return True
    return False


def check_reduce(case, code, stdout) -> Outcome:
    if code != 0:
        return fail(f"exit {code}")
    lines = [json.loads(line) for line in stdout.splitlines()]
    current = _columns(case.rows)
    for step in lines[:-1]:
        current = _rewrite(current, step)
        if current is None or current != step["result"]:
            return fail(f"invalid step {step['kind']}")
    final = lines[-1]
    if final["kind"] != "Reduced" or final["result"] != current:
        return fail("final subset does not match the trace")
    if _reducible(current):
        return fail("trace stopped before the subset was reduced")
    return Outcome(True)


def check_det4(case, code, stdout) -> Outcome:
    lines = stdout.splitlines()
    if code != 0 or lines[0] != "a,b,c,d":
        return fail(f"exit {code} or bad header")
    rows = [tuple(int(x) for x in line.split(",")) for line in lines[1:]]
    if any(oracle.det4(*r) != 0 for r in rows):
        return fail("a listed diagonal has nonzero determinant")
    if rows != case.truth["table"]:
        return fail("zero table incomplete or out of order")
    return Outcome(True)


CHECKS = {"check": check_check, "hajos": check_hajos,
          "classify": check_classify, "stats": check_stats,
          "wu": check_wu, "reduce": check_reduce, "det4": check_det4}
