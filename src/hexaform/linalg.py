"""Exact integer linear algebra: Smith normal form, sparse kernels, and
the leading minors of a symmetric congruence.

Matrices are plain lists of lists of Python ints (row-major); arbitrary
precision comes for free.  Everything here is deterministic: the same input
always yields the same decomposition, which downstream code relies on for
reproducible Gram matrices.

The rest of the package reads kernels and ranks off `sparse_kernel`, which
eliminates by +-1 pivots, leaves only the rows they cannot clear to
`smith_normal_form`, and lifts all kernel columns at once, one sparse row
per variable, at the cost of the nonzeros the pivots touch; elementary
divisors off `smith_normal_form`, whose diagonal is a divisibility chain
by construction, with no repair pass; and signatures and discriminants off
`congruent_minors`, one fraction-free symmetric elimination over Z or mod
an odd prime.  Its Z kernels are the saturated columns that
`sparse_kernel` returns: every report is a congruence invariant, so none
depends on which basis spans the lattice.  A Smith form keeps only its
column transform V.  `det` (Bareiss),
`unimodular_inverse` (Fraction Gauss-Jordan) and `hermite_columns` (the
canonical basis of a lattice) have no caller in the package: they are
independent routes that the tests use as oracles.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from fractions import Fraction

Matrix = list[list[int]]


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


@dataclass(frozen=True)
class SmithDecomposition:
    """U @ A @ V == D with D diagonal, d_1 | d_2 | ... >= 0, U, V unimodular;
    U is not kept."""

    d: Matrix
    v: Matrix

    @property
    def diagonal(self) -> list[int]:
        return [self.d[i][i] for i in range(min(len(self.d), len(self.d[0]) if self.d else 0))]

    @property
    def rank(self) -> int:
        return sum(1 for x in self.diagonal if x != 0)


def _swap_rows(a: Matrix, i: int, j: int) -> None:
    a[i], a[j] = a[j], a[i]


def _swap_cols(a: Matrix, i: int, j: int) -> None:
    for row in a:
        row[i], row[j] = row[j], row[i]


def _add_row(a: Matrix, dst: int, src: int, q: int) -> None:
    # row dst += q * row src
    rd, rs = a[dst], a[src]
    for k in range(len(rd)):
        rd[k] += q * rs[k]


def _add_col(a: Matrix, dst: int, src: int, q: int) -> None:
    for row in a:
        row[dst] += q * row[src]


def _scale_row(a: Matrix, i: int, s: int) -> None:
    a[i] = [s * x for x in a[i]]


def smith_normal_form(a: Matrix) -> SmithDecomposition:
    """Compute the Smith normal form of an integer matrix.

    Pivoting picks the smallest nonzero entry in absolute value, which keeps
    coefficient growth tame at the matrix sizes this project deals with.
    """
    if not a or not a[0]:
        raise ValueError("matrix must be nonempty")
    m, n = len(a), len(a[0])
    d = [row[:] for row in a]
    v = identity(n)

    def pivot_search(t: int) -> tuple[int, int] | None:
        best = None
        best_abs = None
        for i in range(t, m):
            row = d[i]
            for j in range(t, n):
                x = row[j]
                if x:
                    ax = abs(x)
                    if best_abs is None or ax < best_abs:
                        best, best_abs = (i, j), ax
                        if ax == 1:
                            return best
        return best

    t = 0
    while t < min(m, n):
        loc = pivot_search(t)
        if loc is None:
            break
        i, j = loc
        if i != t:
            _swap_rows(d, t, i)
        if j != t:
            _swap_cols(d, t, j)
            _swap_cols(v, t, j)
        if d[t][t] < 0:
            _scale_row(d, t, -1)
        p = d[t][t]
        # clear column t
        dirty = False
        for i in range(t + 1, m):
            if d[i][t]:
                q = d[i][t] // p
                _add_row(d, i, t, -q)
                if d[i][t]:
                    dirty = True
        if dirty:
            continue
        # clear row t
        for j in range(t + 1, n):
            if d[t][j]:
                q = d[t][j] // p
                _add_col(d, j, t, -q)
                _add_col(v, j, t, -q)
                if d[t][j]:
                    dirty = True
        if dirty:
            continue
        # pivot must divide the rest of the submatrix
        culprit = None
        for i in range(t + 1, m):
            row = d[i]
            for j in range(t + 1, n):
                if row[j] % p:
                    culprit = i
                    break
            if culprit is not None:
                break
        if culprit is not None:
            _add_row(d, t, culprit, 1)
            continue
        # p > 0 divides the whole block below and right of it, and later
        # steps only combine entries of that block, so every later pivot is a
        # multiple of p: the diagonal is already a positive divisibility chain
        t += 1

    return SmithDecomposition(d, v)


def det(a: Matrix) -> int:
    """Exact determinant via fraction-free Bareiss elimination."""
    n = len(a)
    if n == 0 or len(a[0]) != n:
        raise ValueError("square matrix required")
    m = [row[:] for row in a]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def unimodular_inverse(a: Matrix) -> Matrix:
    """Inverse of a matrix with determinant +-1; result is integral."""
    n = len(a)
    work = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(a)]
    for c in range(n):
        piv = next((i for i in range(c, n) if work[i][c]), None)
        if piv is None:
            raise ValueError("matrix is singular")
        work[c], work[piv] = work[piv], work[c]
        inv = 1 / work[c][c]
        work[c] = [x * inv for x in work[c]]
        for i in range(n):
            if i != c and work[i][c]:
                f = work[i][c]
                work[i] = [x - f * y for x, y in zip(work[i], work[c])]
    out = [[x for x in row[n:]] for row in work]
    for row in out:
        for x in row:
            if x.denominator != 1:
                raise ValueError("matrix is not unimodular")
    return [[int(x) for x in row] for row in out]


def hermite_columns(basis: list[list[int]]) -> list[list[int]]:
    """Canonical basis (as columns) of the lattice spanned by the given
    columns: two generating sets span the same lattice exactly when their
    `hermite_columns` agree.  No coefficient bound holds, so it stays off
    the package's kernel routes.

    Row-HNF of the transposed generator matrix, transposed back: pivots
    positive, entries above each pivot reduced to [0, pivot).
    """
    if not basis:
        return []
    rows = [col[:] for col in basis]
    m, n = len(rows), len(rows[0])
    r = 0
    for c in range(n):
        if r == m:
            break
        # gcd-combine everything below r into row r
        for i in range(r + 1, m):
            while rows[i][c]:
                if rows[r][c] == 0:
                    rows[r], rows[i] = rows[i], rows[r]
                    continue
                q = rows[i][c] // rows[r][c]
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                if rows[i][c]:
                    rows[r], rows[i] = rows[i], rows[r]
        if rows[r][c] == 0:
            continue
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
    return [row for row in rows[:r]]


def _eliminate(rows: list[dict[int, int]], n: int
               ) -> tuple[list[tuple[int, dict[int, int]]], list[int], Matrix]:
    """Greedy elimination by +-1 pivots (Dumas, Saunders and Villard 2001)
    of rows {column: nonzero entry} over n columns.

    The pivot column is the one in the fewest live rows, then the lowest
    index; the pivot row is the shortest live row with a unit entry there,
    then the first.  Returns the pivots in elimination order, as (c, expr)
    with x_c = sum of v * x_j over expr, whose columns outlive c; the
    columns never pivoted on; and the rows left uncleared, dense over those
    columns.  Every pivot step is unimodular, so the kernel is that of the
    residual rows, lifted through the pivots.
    """
    live = {i: dict(row) for i, row in enumerate(rows) if row}
    holders: dict[int, set[int]] = {}
    for i, row in live.items():
        for j in row:
            holders.setdefault(j, set()).add(i)
    heap = [(len(s), j) for j, s in holders.items()]
    heapq.heapify(heap)
    pivots: list[tuple[int, dict[int, int]]] = []
    while heap:
        count, c = heapq.heappop(heap)
        if len(holders.get(c, ())) != count:
            continue  # stale: the column changed after this entry was pushed
        units = [i for i in holders[c] if live[i][c] in (1, -1)]
        if not units:
            continue  # an update touching the column pushes it again
        r = min(units, key=lambda i: (len(live[i]), i))
        prow = live.pop(r)
        for j in prow:
            holders[j].discard(r)
        e = prow.pop(c)
        for i in holders.pop(c):
            row = live[i]
            f = row.pop(c) * e
            for j, v in prow.items():
                w = row.get(j, 0) - f * v
                if w:
                    if j not in row:
                        holders[j].add(i)
                    row[j] = w
                elif j in row:
                    del row[j]
                    holders[j].discard(i)
            if not row:
                del live[i]
        for j in prow:
            heapq.heappush(heap, (len(holders[j]), j))
        pivots.append((c, {j: -e * v for j, v in prow.items()}))
    pivoted = {c for c, _ in pivots}
    free = [j for j in range(n) if j not in pivoted]
    pos = {j: k for k, j in enumerate(free)}
    residual = []
    for i in sorted(live):
        dense = [0] * len(free)
        for j, v in live[i].items():
            dense[pos[j]] = v
        residual.append(dense)
    return pivots, free, residual


def sparse_kernel(rows: list[dict[int, int]], n: int,
                  p: int | None = None) -> tuple[int, list[list[int]]]:
    """Rank and kernel basis (as columns) of an integer matrix with n
    columns, given as rows {column: nonzero entry}; over Z, or over GF(p)
    for a prime p.

    Unit-pivot elimination (`_eliminate`) in front of a dense Smith normal
    form of only the rows it cannot clear: the residual's kernel is
    spanned by the columns of its V past the rank, mod p also by those
    whose diagonal entry p divides.  Back-substitution lifts all d kernel
    columns at once, row by row: each variable is a sparse row
    {kernel column: value}, a free one the row of its residual-kernel
    entries ({k: 1} without a residual), and each pivot, popped in reverse
    order, the sum of v * row(j) over its expression.  That costs the
    nonzeros the pivots touch, not d times the expression sizes.
    Over Z the columns are a saturated basis of the kernel lattice, the
    same for the same rows; no canonical form is imposed on them.
    """
    pivots, free, residual = _eliminate(rows, n)
    if residual:
        snf = smith_normal_form(residual)
        diag, v = snf.diagonal, snf.v
        if p is None:
            keep = range(snf.rank, len(free))
        else:
            keep = [k for k in range(len(free)) if k >= len(diag) or diag[k] % p == 0]
        value = {j: {k: v[a][b] for k, b in enumerate(keep) if v[a][b]}
                 for a, j in enumerate(free)}
        d = len(keep)
    else:
        value = {j: {k: 1} for k, j in enumerate(free)}
        d = len(free)
    while pivots:
        c, expr = pivots.pop()
        acc: dict[int, int] = {}
        for j, e in expr.items():
            for k, x in value[j].items():
                acc[k] = acc.get(k, 0) + e * x
        value[c] = {k: x for k, x in acc.items() if x}
    cols = [[0] * n for _ in range(d)]
    for j, row in value.items():
        for k, x in row.items():
            cols[k][j] = x
    return n - d, cols


def congruent_minors(a: Matrix, p: int | None = None) -> list[int]:
    """Nonzero leading minors D_1, ..., D_r of a matrix congruent to the
    symmetric matrix a, r its rank; over Z, or mod an odd prime p.

    Symmetric fraction-free elimination (Bareiss 1968): after k pivots the
    live entries are D_k times the Schur complement, so each update
    (D_k a_ij - a_ik a_kj) / D_(k-1) divides exactly, mod p by the inverse
    of D_(k-1).  The pivot is the first live nonzero diagonal entry;
    without one, e_i <- e_i + e_j on the first nonzero a_ij makes the
    (i, i) entry 2 a_ij, nonzero over Z and mod an odd p.  The ratios
    D_k / D_(k-1) are the diagonal of a congruent diagonal form: their
    signs give the inertia, and D_r mod p the discriminant.
    """
    m = [[x % p if p else x for x in row] for row in a]
    minors = []
    prev = 1
    while m:
        n = len(m)
        piv = next((i for i in range(n) if m[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in range(n) for j in range(n) if m[i][j]), None)
            if pair is None:
                break
            piv, j = pair
            m[piv] = [x + y for x, y in zip(m[piv], m[j])]
            for row in m:
                row[piv] += row[j]
        top = m[piv]
        d = top[piv] % p if p else top[piv]
        rest = [i for i in range(n) if i != piv]
        # the live block shrinks to the next scaled Schur complement
        if p:
            inv = pow(prev, -1, p)
            m = [[(d * m[i][k] - m[i][piv] * top[k]) * inv % p for k in rest] for i in rest]
        else:
            m = [[(d * m[i][k] - m[i][piv] * top[k]) // prev for k in rest] for i in rest]
        minors.append(d)
        prev = d
    return minors


def inertia(g: Matrix) -> tuple[int, int]:
    """(p_plus, p_minus) of a symmetric integer matrix (Sylvester's law of
    inertia): p_minus is the number of sign changes along 1, D_1, ..., D_r
    of `congruent_minors`."""
    minors = congruent_minors(g)
    neg = sum(1 for a, b in zip([1] + minors, minors) if (a < 0) != (b < 0))
    return len(minors) - neg, neg
