"""The oracles that the tests check the library against, each deciding
by a route of its own, and the tools that run them.  The tests' random
inputs come from ``tests/families.py``."""

import importlib
import itertools
import json
import sys
from math import gcd
from pathlib import Path

from cubiquity import (
    BasisMatrix,
    Block,
    BlockDecomposition,
    CubiquityVerdict,
    HajosBasis,
    NotOrthogonal,
    RewriteStep,
    Status,
    Subset,
    SubsetStats,
    WuData,
    catalog_blocks,
    contract,
    det4_formula,
    double_project,
    is_orthogonal,
    project,
    stats,
    wu_obstruction,
)
from cubiquity.classify import HYPER_2X2, OTHER, TWO_TIMES, UNIT
from cubiquity.errors import MatrixFormatError


def count_calls(monkeypatch, module, name):
    """Wrap module.name under every name a module of the package binds it
    to; returns the list each call appends its first argument to."""
    original = getattr(importlib.import_module(module), name)
    calls = []

    def counted(first, *args, **kwargs):
        calls.append(first)
        return original(first, *args, **kwargs)

    for module_name, mod in list(sys.modules.items()):
        if (module_name.partition(".")[0] == "cubiquity"
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counted)
    return calls


def bench_plan(workload, seed):
    """The benchmark's seeded inputs for one workload, from
    bench/workloads.py, which imports only the benchmark's own oracle."""
    bench = str(Path(__file__).resolve().parent.parent / "bench")
    if bench not in sys.path:
        sys.path.append(bench)
    return importlib.import_module("workloads").plan(workload, seed)


def gram(vectors):
    """Symmetric matrix of pairwise dot products of equal-length integer
    vectors, or of a subset's vectors; the dense oracles' Gram matrix."""
    vecs = [tuple(v) for v in getattr(vectors, "vectors", vectors)]
    return tuple(
        tuple(sum(a * b for a, b in zip(u, v)) for v in vecs) for u in vecs)


def length_three_family(x):
    """The one-parameter subset {e1+e2, -e2+x*e3, e2-e1} in Z^3.

    Every member is non-acute, and the Wu obstruction fires exactly when
    |x| >= 3.  Larger subsets contract down to this family, which makes it
    a convenient probe for contraction experiments; no library or CLI path
    uses it.
    """
    if x == 0:
        raise ValueError("the family needs a nonzero parameter")
    return Subset([(1, 1, 0), (0, -1, x), (-1, 1, 0)])


def read_rows_reference(lines, rows_as_vectors=False):
    """The row reader before its token table: int() on every token."""
    n = len(lines)
    rows = []
    for line in lines:
        try:
            row = tuple(map(int, line.split()))
        except ValueError as exc:
            raise MatrixFormatError(f"bad matrix row {line!r}") from exc
        if len(row) != n:
            raise MatrixFormatError(
                f"row {line!r} has {len(row)} entries, expected {n}")
        rows.append(row)
    return tuple(zip(*rows)) if rows_as_vectors else tuple(rows)


def parse_inline_reference(text, rows_as_vectors=False):
    """Reference inline reader, for text without line breaks: the stripped
    ';' parts that are not blank, read as rows by read_rows_reference."""
    parts = [p.strip() for p in text.split(";") if p.strip()]
    if not parts:
        raise MatrixFormatError("empty inline matrix")
    return read_rows_reference(parts, rows_as_vectors)


def xgcd(a, b):
    """Return (x, y, g) with x*a + y*b == g == gcd(a, b) >= 0."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return x, y, g


def hnf_reference(basis):
    """Reference column-style Hermite Normal Form, row by row in order.

    Lower triangular with positive diagonal; in each row the entries left
    of the diagonal are reduced into [0, diagonal).
    """
    return BasisMatrix.from_columns(
        hnf_reference_columns([list(c) for c in basis.columns]))


def hnf_reference_columns(cols):
    """`hnf_reference` on a list of n columns, which it reduces in place
    and returns: no matrix is built and no determinant computed."""
    n = len(cols)
    for r in range(n):
        for j in range(r + 1, n):
            b = cols[j][r]
            if b == 0:
                continue
            a = cols[r][r]
            x, y, g = xgcd(a, b)
            a_g, b_g = a // g, b // g
            cr, cj = cols[r], cols[j]
            for i in range(r, n):
                u, v = cr[i], cj[i]
                cr[i] = x * u + y * v
                cj[i] = a_g * v - b_g * u
        if cols[r][r] < 0:
            cols[r] = [-v for v in cols[r]]
        d = cols[r][r]
        for j in range(r):
            q = cols[j][r] // d
            if q:
                cj, cr = cols[j], cols[r]
                for i in range(r, n):
                    cj[i] -= q * cr[i]
    return cols


def membership_reference(basis):
    """Reference membership predicate: forward substitution into the HNF
    columns, where every division must be exact."""
    hcols = [list(c) for c in hnf_reference(basis).columns]
    n = basis.n
    diag = [hcols[j][j] for j in range(n)]

    def member(x):
        rem = list(x)
        for j in range(n):
            r = rem[j]
            if r % diag[j]:
                return False
            q = r // diag[j]
            if q:
                col = hcols[j]
                for i in range(j + 1, n):
                    rem[i] -= q * col[i]
        return True

    return member


def eliminate(free, j):
    """Clear coordinate j from the columns by unimodular column operations.

    One column ends up carrying the gcd at j and is dropped; the others
    span the vectors of the columns' lattice that vanish at j.
    """
    rest = []
    pivot = None
    for col in free:
        if col[j] == 0:
            rest.append(col)
        elif pivot is None:
            pivot = col
        else:
            a, b = pivot[j], col[j]
            x, y, g = xgcd(a, b)
            a_g, b_g = a // g, b // g
            rest.append([a_g * v - b_g * u for u, v in zip(pivot, col)])
            pivot = [x * u + y * v for u, v in zip(pivot, col)]
    return rest


def cofactor_det(rows):
    """Determinant by cofactor expansion; independent of the library path."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in rows[1:]]
        total += (-1) ** j * rows[0][j] * cofactor_det(minor)
    return total


def minor_bits_reference(rows):
    """`packed._minor_bits` with the squares summed in a generator, before
    it summed them with ``map(mul, col, col)``: ``bits[r]`` with every r x r
    minor below ``2 ** bits[r]`` in absolute value, by Hadamard's bound."""
    squares = sorted((sum(a * a for a in col) for col in zip(*rows)),
                     reverse=True)
    bits = [0]
    bound = 1
    for s in squares:
        bound *= max(s, 1)
        bits.append((bound.bit_length() + 1) // 2)
    return bits


def det_packed_reference(rows):
    """The packed Bareiss kernel before it eliminated two columns per pass
    or packed its rows with struct: one step, and one exact division, per
    column, and one ``to_bytes`` call per entry in the first pack.  So it
    is the oracle for both: for the pair update, and for the struct codes,
    their sign flip and the widths they force.

    A row of entries a_j is ``sum(a_j << (w * j))``: signed slots of w bits.
    A step is ``(v * pivot - head * top) // prev >> w`` on every row v below
    the pivot row ``top``: the numerator's slots are the per-entry
    numerators, each exactly prev times its next entry, so the division is
    exact, and slot 0 is ``head * pivot - pivot * head = 0``, so the shift
    drops the eliminated column.  The signed low slot, read as
    ``((v & mask) ^ half) - half``, is the next pivot column.  Pivot
    choice, row swaps and sign are those of `lattice._det_entries`.

    After K steps every entry is a (K+1)-minor, so it fits in w bits from
    `minor_bits_reference`.  A stage starting at step k runs to step
    ``k + max(k // 3, 6)`` with the width its last minors need (a whole
    number of bytes); then the rows are spread byte-wise into the next
    stage's wider slots.  Each slot stores entry + an offset there, so it is
    a plain unsigned field while it moves.
    """
    def slots(value, size, width):  # value in each of size slots
        return sum(value << (8 * width * i) for i in range(size))

    n = len(rows)
    bits = minor_bits_reference(rows)
    sign = 1
    prev = 1
    k = 0
    width = 0  # bytes per slot; 0 until the rows are first packed
    while True:
        end = min(k + max(k // 3, 6), n - 1)
        size = n - k  # live rows, and slots per row
        old, width = width, bits[end + 1] // 8 + 1
        if old:
            offset = 1 << (8 * old - 1)
            lift = slots(offset, size, old)
            data = b"".join([(v + lift).to_bytes(size * old, "little")
                             for v in live])
            spread = bytearray(size * size * width)
            for byte in range(old):
                spread[byte::width] = data[byte::old]
        else:
            offset = 1 << (8 * width - 1)
            spread = b"".join([(a + offset).to_bytes(width, "little")
                               for row in rows for a in row])
        bias = slots(offset, size, width)
        length = size * width
        live = [int.from_bytes(spread[i:i + length], "little") - bias
                for i in range(0, len(spread), length)]
        w = 8 * width
        mask = (1 << w) - 1
        half = 1 << (w - 1)
        for _ in range(k, end):
            if not live[0] & mask:
                for r, v in enumerate(live):
                    if v & mask:
                        live[0], live[r] = v, live[0]
                        sign = -sign
                        break
                else:
                    return 0
            top = live[0]
            pivot = ((top & mask) ^ half) - half
            live = [(v * pivot - (((v & mask) ^ half) - half) * top)
                    // prev >> w for v in live[1:]]
            prev = pivot
        if end == n - 1:
            # one row of one slot: the packed value is the entry itself
            return sign * live[0]
        k = end


def bruteforce_vertex_scan(basis):
    """Reference cubiquity oracle: test every cube vertex for membership.

    Scans the HNF box in lexicographic order and solves membership for all
    2^n vertices of the cube at each point, |det| * 2^n solves in all.  The
    first point whose cube misses the lattice is the witness.
    """
    n = basis.n
    member = membership_reference(basis)
    h = hnf_reference(basis)
    vertices = list(itertools.product((0, 1), repeat=n))
    for x in itertools.product(*(range(h.rows[i][i]) for i in range(n))):
        if not any(member([a + e for a, e in zip(x, eps)])
                   for eps in vertices):
            return CubiquityVerdict(Status.NOT_CUBIQUITOUS, witness=x)
    return CubiquityVerdict(Status.CUBIQUITOUS)


def hnf_box(basis):
    """Lexicographic iterator over the fundamental box prod [0, H_ii).

    The box holds one representative of each coset of Z^n modulo the
    lattice, |det| points in all.
    """
    h = hnf_reference(basis)
    return itertools.product(*(range(h.rows[i][i]) for i in range(basis.n)))


def coset_cover_reference(basis):
    """Reference cubiquity oracle: cover the cosets one at a time.

    The HNF-box representatives of the 0/1 vectors are built one
    coordinate at a time, each reached coset plus e_k reduced back into
    the box, stopping once all |det| cosets are reached.  Otherwise the
    witness is the first box point x whose -x lies in an unreached coset.
    About 2^n + |det| reductions of n coordinates, a set of tuples.
    """
    n = basis.n
    h = hnf_reference(basis)
    hcols = h.columns
    diag = [h.rows[j][j] for j in range(n)]
    order = abs(basis.det)

    def reduce(v, start=0):
        for j in range(start, n):
            q = v[j] // diag[j]
            if q:
                col = hcols[j]
                for i in range(j, n):
                    v[i] -= q * col[i]
        return tuple(v)

    reached = {(0,) * n}
    for k in range(n):
        for s in list(reached):
            if len(reached) == order:
                break
            v = list(s)
            v[k] += 1
            # without a carry at k the sum is already in the box
            reached.add(reduce(v, k) if v[k] == diag[k] else tuple(v))
    if len(reached) == order:
        return CubiquityVerdict(Status.CUBIQUITOUS)
    box = itertools.product(*(range(d) for d in diag))
    witness = next(x for x in box if reduce([-a for a in x]) not in reached)
    return CubiquityVerdict(Status.NOT_CUBIQUITOUS, witness=witness)


def diagonalize_reference(basis):
    """Reference presentation of Z^n/L from the Hermite form: the
    brute-force oracle's before it worked from the basis modulo |det|.

    Returns ``(moduli, images)``: Z^n/L is isomorphic to the product of
    Z/m over the moduli, all above 1, and ``images[k]`` is the image of
    e_k there.  Read the columns of the HNF H as relations among the
    generators e_k.  An HNF row whose diagonal entry is 1 is 0 elsewhere,
    so its column gives e_k as minus the rest of that column.  One Smith
    elimination brings the other rows to a diagonal D = U H V, and
    x -> U x modulo D is the isomorphism, so only U is kept, beside each
    row.  N = |det| times Z^n lies in L, so everything is reduced modulo
    N: the steps are invertible over Z/N, and a diagonal entry d leaves
    the factor Z/gcd(d, N).  Pivots of least gcd with N come first, so a
    unit coefficient clears its column at once and leaves a Z/1, dropped.
    """
    h = basis.hnf
    hrows = h.rows
    n = h.n
    N = h.det
    gens = [k for k in range(n) if hrows[k][k] > 1]
    s = len(gens)
    rows = [[hrows[i][k] for k in gens] + [int(i == g) for g in gens]
            for i in gens]
    for k in range(s):
        # the smaller its gcd with N, the more entries a pivot divides
        best = min(range(k, s), key=lambda i: gcd(rows[i][k], N))
        rows[k], rows[best] = rows[best], rows[k]
        while True:
            rk = rows[k]
            for i in range(k + 1, s):
                ri = rows[i]
                b = ri[k]
                if not b:
                    continue
                p = rk[k]
                g = gcd(p, N)
                if b % g == 0:
                    q = b // g * pow(p // g, -1, N // g) % N
                    rows[i] = [(v - q * u) % N for u, v in zip(rk, ri)]
                    continue
                x, y, g = xgcd(p, b)
                p_g, b_g = p // g, b // g
                rows[i] = [(p_g * v - b_g * u) % N for u, v in zip(rk, ri)]
                rk = rows[k] = [(x * u + y * v) % N for u, v in zip(rk, ri)]
            # Column k is clear below the pivot.  If the pivot divides its
            # row, the column operations that clear the row change nothing
            # else, and no later step reads the row; if not, one gcd step
            # lowers the pivot and refills column k.
            p = rk[k]
            g = gcd(p, N)
            j = next((j for j in range(k + 1, s) if rk[j] % g), None)
            if j is None:
                break
            x, y, g = xgcd(p, rk[j])
            p_g, b_g = p // g, rk[j] // g
            for r in rows[k:]:
                u, v = r[k], r[j]
                r[k] = (x * u + y * v) % N
                r[j] = (p_g * v - b_g * u) % N
    kept = [(m, row[s:]) for m, row in
            ((gcd(row[k], N), row) for k, row in enumerate(rows)) if m > 1]
    moduli = tuple(m for m, _ in kept)
    images = [None] * n
    for j, i in enumerate(gens):
        images[i] = [u[j] for _, u in kept]
    for k in range(n):
        if images[k] is None:  # e_k is minus the rest of its HNF column
            images[k] = [-sum(hrows[i][k] * images[i][c] for i in gens)
                         for c in range(len(moduli))]
    return moduli, tuple(tuple(x % m for x, m in zip(image, moduli))
                         for image in images)


def diagonalize_tietze_reference(basis):
    """Reference presentation of Z^n/L straight from the basis modulo
    |det|: the brute-force oracle's before its loops were flattened, with
    one generator sum per (generator, cyclic factor).  Its output equals
    ``cosets._diagonalize``'s exactly.

    Returns ``(moduli, images)``: Z^n/L is isomorphic to the product of
    Z/m over the moduli, all above 1, and ``images[k]`` is the image of
    e_k there.  The basis columns are relations among the generators e_k,
    and N = |det| times Z^n lies in L, so with the relations N e_k they
    present Z^n/L and everything is reduced modulo N.

    * Tietze moves.  In column order, a relation whose coefficient u at a
      live generator e_i is a unit modulo N (the first such i) gives
      e_i = -u^-1 times the rest of the relation.  One column operation
      clears e_i from each other live relation, and e_i and the relation
      are dropped.
    * The square core that is left gets one Smith elimination to a
      diagonal D = U C V, and x -> U x modulo D is the isomorphism on the
      live generators, so only U is kept, beside each row.  A diagonal
      entry d leaves the factor Z/gcd(d, N).  Pivots of least gcd with N
      come first, so a unit clears its column at once and leaves a Z/1,
      dropped.
    * The images of the dropped generators follow by back-substitution,
      in reverse order.
    """
    n = basis.n
    N = abs(basis.det)
    rels = [[a % N for a in col] for col in basis.columns]
    live = list(range(n))
    solved = []  # (i, the terms (t, c) of e_i = sum c e_t), in order
    core = []
    for j, rel in enumerate(rels):
        i = next((i for i in live if gcd(rel[i], N) == 1), None)
        if i is None:
            core.append(rel)
            continue
        live.remove(i)
        inv = pow(rel[i], -1, N)
        terms = [(t, rel[t]) for t in live if rel[t]]
        solved.append((i, [(t, -inv * a % N) for t, a in terms]))
        for other in itertools.chain(core, rels[j + 1:]):
            q = other[i] * inv % N
            if q:
                for t, a in terms:
                    other[t] = (other[t] - q * a) % N
    s = len(live)
    rows = [[rel[i] for rel in core] + [int(i == g) for g in live]
            for i in live]
    for k in range(s):
        # the smaller its gcd with N, the more entries a pivot divides
        best = min(range(k, s), key=lambda i: gcd(rows[i][k], N))
        rows[k], rows[best] = rows[best], rows[k]
        while True:
            rk = rows[k]
            for i in range(k + 1, s):
                ri = rows[i]
                b = ri[k]
                if not b:
                    continue
                p = rk[k]
                g = gcd(p, N)
                if b % g == 0:
                    q = b // g * pow(p // g, -1, N // g) % N
                    rows[i] = [(v - q * u) % N for u, v in zip(rk, ri)]
                    continue
                x, y, g = xgcd(p, b)
                p_g, b_g = p // g, b // g
                rows[i] = [(p_g * v - b_g * u) % N for u, v in zip(rk, ri)]
                rk = rows[k] = [(x * u + y * v) % N for u, v in zip(rk, ri)]
            # Column k is clear below the pivot.  If the pivot divides its
            # row, the column operations that clear the row change nothing
            # else, and no later step reads the row; if not, one gcd step
            # lowers the pivot and refills column k.
            p = rk[k]
            g = gcd(p, N)
            j = next((j for j in range(k + 1, s) if rk[j] % g), None)
            if j is None:
                break
            x, y, g = xgcd(p, rk[j])
            p_g, b_g = p // g, rk[j] // g
            for r in rows[k:]:
                u, v = r[k], r[j]
                r[k] = (x * u + y * v) % N
                r[j] = (p_g * v - b_g * u) % N
    kept = [(m, row[s:]) for m, row in
            ((gcd(row[k], N), row) for k, row in enumerate(rows)) if m > 1]
    moduli = tuple(m for m, _ in kept)
    images = [None] * n
    for j, i in enumerate(live):
        images[i] = tuple(u[j] % m for m, u in kept)
    for i, terms in reversed(solved):
        images[i] = tuple(sum(c * images[t][f] for t, c in terms) % m
                          for f, m in enumerate(moduli))
    return moduli, tuple(images)


def translate_reference(cosets, by, blocks):
    """The coset set ``cosets + by`` on first_missed_cube_reference's
    bitset, where component i has a (stride, block, rep) of ``blocks``:
    in each block of ``block`` bits, the bits below ``cut`` move up by
    ``by[i] * stride`` and the rest wrap round to the foot of the block."""
    for (stride, block, rep), t in zip(blocks, by):
        cut = block - t * stride
        low = rep * ((1 << cut) - 1)
        cosets = (cosets & low) << (block - cut) | (cosets & ~low) >> cut
    return cosets


def first_missed_cube_reference(basis):
    """Reference witness search on diagonalize_reference's presentation:
    the first x of the HNF box, in lexicographic order, whose cube
    x + {0,1}^n misses the lattice, or None when every cube meets it.
    It tests the values of each coordinate one at a time, up to d_k.

    The cube meets L iff -x is congruent to a 0/1 vector, that is, iff the
    coset of -x is a sum of distinct e_k.  Those sums are reached with one
    rotation per coordinate, stopping once every coset is reached.
    """
    n = basis.n
    order = basis.hnf.det
    moduli, images = diagonalize_reference(basis)
    full = (1 << order) - 1
    blocks = []
    stride = 1
    for m in moduli:
        block = stride * m
        rep, width = 1, block  # a 1 at the foot of every block
        while width < order:
            rep |= rep << width
            width *= 2
        blocks.append((stride, block, rep & full))
        stride = block
    reached = 1  # the coset of 0, at bit 0
    for g in images:
        if reached == full:
            break
        reached |= translate_reference(reached, g, blocks)
    if reached == full:
        return None
    # -x is the sum of x_k (-e_k).  The box points that vanish before
    # coordinate k + 1 map one to one onto the subgroup H spanned by the
    # e_j with j > k, so a prefix ending at x_k extends to a witness iff its
    # -x lies in missed + H.  Those sets are built by doubling, from the
    # last coordinate back, until one is everything; then each coordinate
    # takes its first good value.
    diag = [row[k] for k, row in enumerate(basis.hnf.rows)]
    saturated = [full] * n
    cosets = full ^ reached
    for k in range(n - 1, -1, -1):
        if cosets == full:
            break
        saturated[k] = cosets
        step = 1
        while k and step < diag[k]:
            cosets |= translate_reference(
                cosets, [-c * step % m for c, m in zip(images[k], moduli)],
                blocks)
            step *= 2
    strides = [stride for stride, _, _ in blocks]
    point = [0] * len(moduli)
    witness = [0] * n
    for k in range(n):
        if diag[k] == 1 or saturated[k] == full:
            continue  # x_k = 0 is the first good value
        bits = saturated[k].to_bytes((order + 7) // 8, "little")
        for x in range(diag[k]):
            at = sum(c * s for c, s in zip(point, strides))
            if bits[at >> 3] >> (at & 7) & 1:
                witness[k] = x
                break
            point = [(c - g) % m for c, g, m in zip(point, images[k], moduli)]
        else:
            raise AssertionError(f"no witness at coordinate {k + 1}")
    return tuple(witness)


def hajos_permutation_scan(basis):
    """Reference Hajos search: a full HNF under every row order.

    Tries the n! orders in itertools.permutations order (identity first)
    and returns the first whose HNF has 2 at every diagonal entry, or None.
    """
    n = basis.n
    if abs(basis.det) != 2 ** n:
        return None
    rows = basis.rows
    for order in itertools.permutations(range(n)):
        cols = hnf_reference_columns([[rows[i][j] for i in order]
                                      for j in range(n)])
        if all(cols[i][i] == 2 for i in range(n)):
            return HajosBasis(matrix=BasisMatrix.from_columns(cols),
                              row_order=order)
    return None


def hajos_prefix_dfs(basis):
    """Reference Hajos search: depth-first over coordinate prefix sets.

    The k-th HNF diagonal entry is the gcd of the k-th chosen coordinate
    over the lattice vectors that vanish on the coordinates chosen before
    it, so it depends on the set of earlier coordinates, not their order.
    Prefixes are extended in increasing coordinate order, carrying a basis
    of those vectors, and a prefix set with no completion is remembered
    as dead, so each of the at most 2^n sets is expanded once.

    Returns (row order or None, number of dead prefix sets met).
    """
    n = basis.n
    if abs(basis.det) != 2 ** n:
        return None, 0
    dead = set()  # bitmasks of prefix sets with no valid completion
    order = []

    def extend(free, chosen):
        if not free:
            return True
        for j in range(n):
            bit = 1 << j
            if chosen & bit or (chosen | bit) in dead:
                continue
            if gcd(*(col[j] for col in free)) != 2:
                continue
            order.append(j)
            if extend(eliminate(free, j), chosen | bit):
                return True
            order.pop()
            dead.add(chosen | bit)
        return False

    found = extend([list(c) for c in basis.columns], 0)
    return (tuple(order) if found else None), len(dead)


def hajos_gcd_greedy(basis):
    """Reference Hajos greedy, the first branch of hajos_prefix_dfs: take
    the smallest coordinate whose gcd over the free columns is 2, computing
    that gcd, and clear it with `eliminate`.  Returns a HajosBasis with
    hnf_reference's form in the order taken, or None."""
    n = basis.n
    if abs(basis.det) != 2 ** n:
        return None
    free = [list(c) for c in basis.columns]
    order = []
    while free:
        j = next((j for j in range(n) if j not in order
                  and gcd(*(col[j] for col in free)) == 2), None)
        if j is None:
            return None
        order.append(j)
        free = eliminate(free, j)
    return HajosBasis(hnf_reference(basis.permute_rows(order)), tuple(order))


def wu_preserved(subset, i, s, t, u):
    """Whether a contraction leaves the Wu obstruction status unchanged.

    Both the source and the contracted subset must be non-acute (errors
    from the obstruction propagate).  Preservation always holds: the
    contraction drops one odd Wu coordinate of magnitude 1, which lowers
    both sides of the obstruction inequality by the same amount.  A False
    return means an implementation bug, so this is a self-test oracle.
    """
    before = wu_obstruction(subset)
    after = wu_obstruction(contract(subset, i, s, t, u))
    return before.status == after.status


def trace_reduce_reference(subset):
    """Reference reduce trace: every step goes through the public
    ``project`` or ``double_project``, which re-check orthogonality.

    Same order as ``trace_reduce``: the lowest projectable vector first,
    else the lowest coordinate carrying a hyperbolic pair.  The candidates
    are found from the support statistics here, not with the library's
    precondition helpers.
    """
    if not is_orthogonal(subset):
        raise NotOrthogonal("reduce requires an orthogonal subset")
    steps = []
    current = subset
    while True:
        st = stats(current)
        n = current.n
        vecs = current.vectors
        step = None
        for s in range(n):
            if len(st.by_vector[s]) == 1:
                step = RewriteStep("Projection", st.by_vector[s], (s,),
                                   project(current, s))
                break
        else:
            for i in range(n):
                pair = st.by_coordinate[i]
                if (len(pair) == 2
                        and all(abs(vecs[v][i]) == 1 for v in pair)
                        and st.by_vector[pair[0]] == st.by_vector[pair[1]]
                        and len(st.by_vector[pair[0]]) == 2):
                    step = RewriteStep("DoubleProjection",
                                       st.by_vector[pair[0]], pair,
                                       double_project(current, i))
                    break
        if step is None:
            return current, tuple(steps)
        steps.append(step)
        current = step.result


def reduce_lines_reference(subset):
    """The stdout of ``cubiquity reduce`` on the subset: each step of
    ``trace_reduce_reference``, then the reduced subset, as one
    ``json.dumps`` line each, with 1-based indices."""
    reduced, steps = trace_reduce_reference(subset)
    lines = [json.dumps({"kind": step.kind,
                         "coordinates": [j + 1 for j in step.coordinates],
                         "vectors": [s + 1 for s in step.vectors],
                         "result": step.result.vectors})
             for step in steps]
    lines.append(json.dumps({"kind": "Reduced", "result": reduced.vectors}))
    return "".join(line + "\n" for line in lines)


def is_orthogonal_reference(subset):
    """Reference orthogonality: the dense Gram matrix, every pair."""
    g = gram(subset)
    n = subset.n
    if any(g[i][i] < 1 for i in range(n)):
        return False
    return all(g[i][j] == 0 for i in range(n) for j in range(n) if i != j)


def is_non_acute_reference(subset):
    """Reference non-acuteness: the dense Gram matrix, row by row."""
    g = gram(subset)
    n = subset.n
    for i in range(n):
        if g[i][i] < 1:
            return False
        row_rest = 0
        for j in range(n):
            if j == i:
                continue
            if g[i][j] > 0:
                return False
            row_rest += g[i][j]
        if g[i][i] < -row_rest:
            return False
    return True


def decompose_reference(subset):
    """Reference block decomposition: each component grows by rescanning
    every vector at each coordinate it reaches."""
    n = subset.n
    vecs = subset.vectors
    seen_c = set()
    seen_v = set()
    blocks = []
    for start in range(n):
        if start in seen_c:
            continue
        coords = {start}
        vectors = set()
        frontier = [start]
        while frontier:
            j = frontier.pop()
            for i in range(n):
                if i not in vectors and vecs[i][j] != 0:
                    vectors.add(i)
                    for jj in range(n):
                        if vecs[i][jj] != 0 and jj not in coords:
                            coords.add(jj)
                            frontier.append(jj)
        seen_c |= coords
        seen_v |= vectors
        c, v = tuple(sorted(coords)), tuple(sorted(vectors))
        blocks.append(Block(c, v, block_kind_reference(subset, c, v)))
    for i in range(n):
        if i not in seen_v:
            blocks.append(Block((), (i,), OTHER))
    return BlockDecomposition(tuple(blocks))


def block_kind_reference(subset, coords, vectors):
    """Reference block shape: the block's entries, read as a list."""
    vecs = [subset.vectors[i] for i in vectors]
    if len(vectors) == 1 and len(coords) == 1:
        entry = abs(vecs[0][coords[0]])
        if entry == 1:
            return UNIT
        if entry == 2:
            return TWO_TIMES
        return OTHER
    if len(vectors) == 2 and len(coords) == 2:
        entries = a, b, c, d = [v[j] for v in vecs for j in coords]
        if all(abs(e) == 1 for e in entries) and a * c + b * d == 0:
            return HYPER_2X2
    return OTHER


def wu_element_reference(subset):
    """Reference Wu element: the transposed vectors, summed by column."""
    total = tuple(map(sum, zip(*subset.vectors)))
    return WuData(total,
                  tuple(j for j, k in enumerate(total) if k % 2),
                  tuple(j for j, k in enumerate(total) if k and k % 2 == 0),
                  tuple(j for j, k in enumerate(total) if k == 0))


def stats_reference(subset):
    """Reference support statistics: every entry of the dense matrix."""
    n = subset.n
    vecs = subset.vectors
    by_vector = tuple(tuple(j for j in range(n) if vecs[i][j])
                      for i in range(n))
    by_coordinate = tuple(tuple(i for i in range(n) if vecs[i][j])
                          for j in range(n))
    classes = tuple(tuple(j for j in range(n) if len(by_coordinate[j]) == m)
                    for m in range(n + 1))
    heavy = tuple(tuple(j for j in cls
                        if any(abs(vecs[i][j]) >= 2 for i in range(n)))
                  for cls in classes)
    excess = sum(x * x for v in vecs for x in v) - 3 * n
    return SubsetStats(by_coordinate, by_vector, classes,
                       tuple(map(len, classes)), heavy, excess)


def identity_reference(subset):
    """(lhs, rhs) of check_identity, from stats_reference and every entry
    of the dense matrix."""
    st = stats_reference(subset)
    count = list(st.counts) + [0] * 3
    lhs = 3 * count[0] + 2 * count[1] + count[2] + st.excess
    rhs = sum((m - 3) * count[m] for m in range(4, subset.n + 1))
    rhs += sum(x * x - 1 for v in subset.vectors for x in v if x != 0)
    return lhs, rhs


def det4_quartic_scan(bound):
    """Reference det4 zero table: evaluate the closed form on every sorted
    tuple 1 <= a <= b <= c <= d <= bound, about bound^4 / 24 of them."""
    out = []
    for a in range(1, bound + 1):
        for b in range(a, bound + 1):
            for c in range(b, bound + 1):
                for d in range(c, bound + 1):
                    if det4_formula(a, b, c, d) == 0:
                        out.append((a, b, c, d))
    return out


def dot(u, v):
    return sum(a * b for a, b in zip(u, v))


def edge_subsets():
    """Hand-picked subsets for the support-list predicates and decompose."""
    return [
        Subset([]), Subset([(0,)]), Subset([(1,)]), Subset([(-3,)]),
        # a zero vector; a zero vector beside a coordinate no vector uses
        Subset([(1, 0), (0, 0)]),
        Subset([(0, 0, 0), (0, 1, 1), (0, 1, -1)]),
        # repeated vectors, equal and opposite
        Subset([(1, 1), (1, 1)]),
        Subset([(1, 0), (-1, 0)]),
        Subset([(1, -1, 0), (1, -1, 0), (0, 0, 2)]),
        # supports that overlap without being orthogonal
        Subset([(1, 1, 0), (0, 1, 1), (-1, 0, 1)]),
        Subset([(1, 1, 0), (0, -1, 3), (-1, 1, 0)]),
        Subset([(1, 1), (-1, -1)]),
        Subset([(2, 1), (1, -1)]),
        *(Subset(block.columns) for block in catalog_blocks()),
    ]

