"""Independent slow routes that the tests hold the package's fast paths to,
and the seeded inputs they share."""

import random
from fractions import Fraction
from functools import lru_cache
from itertools import combinations

import numpy as np

from hexaform import linalg
from hexaform.gf import GF
from hexaform.hexagon import R_MATRIX, PermittedSpace, _gram, permitted_space
from hexaform.invariants import (CapExceeded, FrobeniusSpec, ValueDistribution,
                                 enumeration_cap)
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import (MOVE_KINDS, ConfigurationNotFound,
                                    LinkConditionViolation, MoveDescriptor, MoveError,
                                    StaleVertex, Triangulation, apply_move,
                                    boundary_delta5, faces, find_moves, orient)


def transpose(a):
    return [list(col) for col in zip(*a)] if a else []


def mat_mul(a, b):
    bt = transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def mat_vec(a, v):
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def dense_kernel(a, p=None):
    """Kernel columns of an integer matrix by one dense Smith decomposition:
    the columns of V past the rank, mod a prime p also those whose diagonal
    entry p divides.  Over Z they are Hermite-reduced to the canonical
    basis."""
    snf = linalg.smith_normal_form(a)
    n, diag = len(a[0]), snf.diagonal
    if p is None:
        keep = range(snf.rank, n)
    else:
        keep = [j for j in range(n) if j >= len(diag) or diag[j] % p == 0]
    cols = [[snf.v[i][j] for i in range(n)] for j in keep]
    return linalg.hermite_columns(cols) if p is None else cols


def per_column_sparse_kernel(rows, n, p=None):
    """`linalg.sparse_kernel` lifted column by column: the same unit-pivot
    elimination and residual Smith step, then each kernel column
    back-substituted on its own through every pivot expression.  The
    package's row-wise lift must return exactly these (rank, columns)."""
    pivots, free, residual = linalg._eliminate(rows, n)
    if residual:
        snf = linalg.smith_normal_form(residual)
        keep = [k for k in range(len(free))
                if k >= snf.rank or (p is not None and snf.diagonal[k] % p == 0)]
        kernel = [[snf.v[a][k] for a in range(len(free))] for k in keep]
    else:
        kernel = linalg.identity(len(free))
    cols = []
    for w in kernel:
        x = [0] * n
        for j, v in zip(free, w):
            x[j] = v
        for c, expr in reversed(pivots):
            x[c] = sum(v * x[j] for j, v in expr.items())
        cols.append(x)
    return n - len(cols), cols


def same_saturated_lattice(cols, expected):
    """Do the columns span the lattice of `expected`, a saturated basis, and
    are they a basis of it?  Equal Hermite forms give the lattice; a unit
    Smith diagonal of the column matrix gives independent columns that
    span a saturated lattice."""
    if linalg.hermite_columns(cols) != linalg.hermite_columns(expected):
        return False
    return not cols or (linalg.smith_normal_form(transpose(cols)).diagonal
                        == [1] * len(cols))


def forbid_hermite(monkeypatch):
    """Make every call of the Hermite reduction fail, to show that no
    package path canonicalises a basis."""
    def no_hermite(basis):
        raise AssertionError("Hermite reduction called")
    monkeypatch.setattr(linalg, "hermite_columns", no_hermite)


def forbid_smith(monkeypatch):
    """Make every call of the dense Smith normal form fail, to show that
    the unit pivots alone cleared a system."""
    def no_smith(a):
        raise AssertionError("residual left for the dense Smith step")
    monkeypatch.setattr(linalg, "smith_normal_form", no_smith)


def rank_mod(rows, p):
    """Rank of an integer matrix mod a prime p, by Gaussian elimination."""
    m = [[x % p for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0]) if m else 0):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = pow(m[rank][c], -1, p)
        m[rank] = [x * inv % p for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [(x - f * y) % p for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank



def fraction_inertia(g):
    """(p_plus, p_minus) of a symmetric integer matrix, by exact rational
    symmetric Gaussian elimination (Sylvester's law of inertia)."""
    n = len(g)
    a = [[Fraction(x) for x in row] for row in g]
    pos = neg = 0
    k = 0
    while k < n:
        piv = next((i for i in range(k, n) if a[i][i]), None)
        if piv is None:
            loc = None
            for i in range(k, n):
                for j in range(i + 1, n):
                    if a[i][j]:
                        loc = (i, j)
                        break
                if loc:
                    break
            if loc is None:
                break
            i, j = loc
            # symmetric row+col add creates a nonzero diagonal at i
            for col in range(n):
                a[i][col] += a[j][col]
            for row in range(n):
                a[row][i] += a[row][j]
            piv = i
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            for row in a:
                row[k], row[piv] = row[piv], row[k]
        d = a[k][k]
        if d > 0:
            pos += 1
        else:
            neg += 1
        for i in range(k + 1, n):
            if a[i][k]:
                f = a[i][k] / d
                for j in range(k, n):
                    a[i][j] -= f * a[k][j]
        for j in range(k + 1, n):
            if a[k][j]:
                f = a[k][j] / d
                for i in range(k, n):
                    a[i][j] -= f * a[i][k]
        k += 1
    return pos, neg


def gf_diagonal(a, p):
    """Nonzero diagonal of a congruence diagonalisation of the symmetric
    matrix a over GF(p), p odd."""
    a = [[x % p for x in row] for row in a]
    live = list(range(len(a)))
    diag = []
    while live:
        piv = next((i for i in live if a[i][i]), None)
        if piv is None:
            pair = next(((i, j) for i in live for j in live if a[i][j]), None)
            if pair is None:
                break
            # e_i <- e_i + e_j makes the (i, i) entry 2 a_ij, a unit
            piv, j = pair
            for k in live:
                a[piv][k] = (a[piv][k] + a[j][k]) % p
            for k in live:
                a[k][piv] = (a[k][piv] + a[k][j]) % p
        live.remove(piv)
        row = a[piv]
        inv = pow(row[piv], -1, p)
        for j in live:
            f = a[j][piv] * inv % p
            if f:
                aj = a[j]
                for k in live:
                    aj[k] = (aj[k] - f * row[k]) % p
        diag.append(row[piv])
    return diag


def dense_constraints(t, r_matrix=R_MATRIX):
    """The 5P x 2T constraint matrix as dense rows, built entry by entry:
    row r of pentachoron u is y(face r) - sum_c R[r][c] x(face c)."""
    tets = tuple(t.tetrahedra())
    idx = {tet: i for i, tet in enumerate(tets)}
    nt = len(tets)
    rows = []
    for u in t.pentachora:
        fs = faces(u)
        for r in range(5):
            row = [0] * (2 * nt)
            row[nt + idx[fs[r]]] = 1
            for c in range(5):
                row[idx[fs[c]]] -= r_matrix[r][c]
            rows.append(tuple(row))
    return tuple(rows)

# --- colorings as objects, and the cocycle term by term --------------------


class Coloring:
    """A (x_t, y_t) assignment over Z or a finite field."""

    __slots__ = ("tets", "_idx", "values", "ring")

    def __init__(self, tets, values, ring: GF | None = None):
        self.tets = tuple(tets)
        self._idx = {tet: i for i, tet in enumerate(self.tets)}
        if len(values) != 2 * len(self.tets):
            raise ValueError("value vector must have length 2 * #tetrahedra")
        self.values = list(values)
        self.ring = ring

    def x(self, tet):
        return self.values[self._idx[tet]]

    def y(self, tet):
        return self.values[len(self.tets) + self._idx[tet]]

    def map(self, f) -> "Coloring":
        return Coloring(self.tets, [f(v) for v in self.values], self.ring)

    @classmethod
    def zero(cls, tets, ring: GF | None = None):
        z = ring.zero if ring is not None else 0
        return cls(tets, [z] * (2 * len(tuple(tets))), ring)


def lifted_basis(space) -> list[list]:
    """The basis vectors as ring elements: over GF(p^n) each residue mod p
    becomes a field element, so that colorings combine in field arithmetic."""
    if space.ring is None:
        return [list(vec) for vec in space.basis]
    return [[space.ring(v) for v in vec] for vec in space.basis]


def colorings(space) -> list[Coloring]:
    return [Coloring(space.tets, vec, space.ring) for vec in lifted_basis(space)]


def combination(space, coeffs) -> Coloring:
    if len(coeffs) != space.dim:
        raise ValueError("coefficient count mismatch")
    n = 2 * len(space.tets)
    basis = lifted_basis(space)
    if space.ring is None:
        vals = [sum(c * b[k] for c, b in zip(coeffs, basis)) for k in range(n)]
    else:
        vals = [sum((c * b[k] for c, b in zip(coeffs, basis)),
                    space.ring.zero) for k in range(n)]
    return Coloring(space.tets, vals, space.ring)


def phi(u, latin: Coloring, greek: Coloring):
    """Cocycle value on one pentachoron: rear-face (x+y) of the Latin
    coloring times front-face (xi+eta) of the Greek one."""
    fs = faces(u)
    rear, front = fs[0], fs[4]
    return (latin.x(rear) + latin.y(rear)) * (greek.x(front) + greek.y(front))


def phi_expanded(u, latin: Coloring, greek: Coloring):
    """The same value written out through the constraint rows: the Latin
    factor uses coefficients (1, -2, 1, 1, -2) on all five faces, the Greek
    factor (1, -1, 1) on the middle three."""
    fs = faces(u)
    a = (latin.x(fs[0]) - 2 * latin.x(fs[1]) + latin.x(fs[2])
         + latin.x(fs[3]) - 2 * latin.x(fs[4]))
    b = greek.x(fs[1]) - greek.x(fs[2]) + greek.x(fs[4])
    return a * b


def action_by_phi(t, latin, greek):
    """The action as the sum over pentachora of sign * phi, through the
    Coloring accessors."""
    total = None
    for sign, u in zip(t.signs, t.pentachora):
        v = phi(u, latin, greek)
        v = v if sign == 1 else -v
        total = v if total is None else total + v
    return total


def action_of(t, latin: Coloring, greek: Coloring):
    """The package's S on two colorings: the (Latin, Greek) entry of the
    Gram that `hexagon._gram` takes on the two value vectors."""
    assert latin.tets == greek.tets
    pair = PermittedSpace(None, latin.tets, (latin.values, greek.values))
    value = _gram(t, pair)[0][1]
    # where Latin's rear face vanishes everywhere the entry is the int 0
    return value if latin.ring is None else latin.ring.zero + value


def cup_by_terms(t, space, a, b):
    """The cup pairing of two triangle cochains term by term: the sum over
    pentachora u of sign_u * a(u[:3]) * b(u[2:])."""
    idx = {s: i for i, s in enumerate(space.triangles)}
    return sum(sign * a[idx[u[:3]]] * b[idx[u[2:]]]
               for sign, u in zip(t.signs, t.pentachora))


def dense_pairing(t, cells, values, left: slice, right: slice) -> tuple:
    """`hexagon.pairing` as the dense product L^T F: every entry the dot
    product of a's signed left-face row with b's right-face row over all P
    pentachora, zeros included."""
    idx = {cell: i for i, cell in enumerate(cells)}
    left_at = [idx[u[left]] for u in t.pentachora]
    right_at = [idx[u[right]] for u in t.pentachora]
    lefts = [[v[i] if sign == 1 else -v[i] for sign, i in zip(t.signs, left_at)]
             for v in values]
    rights = [[v[j] for j in right_at] for v in values]
    return tuple(tuple(sum(x * y for x, y in zip(a, b)) for b in rights) for a in lefts)


def gram_by_phi(t, space) -> list[list]:
    """The Gram matrix entry by entry from `action_by_phi`."""
    cols = colorings(space)
    return [[action_by_phi(t, a, b) for b in cols] for a in cols]


def coboundary_terms(u, latin: Coloring, greek: Coloring):
    """Per-face terms (x_t + y_t) * eta_t.  On permitted colorings their
    alternating sum over the five faces equals phi(greek, latin) minus
    phi(latin, greek), so the action's asymmetry is a coboundary."""
    return [(latin.x(tet) + latin.y(tet)) * greek.y(tet) for tet in faces(u)]


def coboundary_terms_alt(u, latin: Coloring, greek: Coloring):
    """Second form of the same coboundary: terms -y_t * (xi_t + eta_t)."""
    return [-(latin.y(tet) * (greek.x(tet) + greek.y(tet))) for tet in faces(u)]


def symmetry_defect(t: Triangulation, latin: Coloring, greek: Coloring) -> dict:
    """Accumulated per-tetrahedron coboundary terms of the action's
    asymmetry; every entry vanishes on a closed oriented triangulation."""
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    acc: dict = {}
    for sign, u in zip(t.signs, t.pentachora):
        for pos, (tet, term) in enumerate(zip(faces(u), coboundary_terms(u, latin, greek))):
            contrib = term * (sign * (-1) ** pos)
            acc[tet] = acc.get(tet, 0 * contrib) + contrib
    return acc


@lru_cache(maxsize=None)
def cp2_walk(seed=10, n=10):
    """cp2 after n seeded random Pachner moves; the defaults give 68
    pentachora."""
    rng = random.Random(seed)
    t = builtin_manifold("cp2")
    for _ in range(n):
        pool = [d for kind in MOVE_KINDS for d in find_moves(t, kind)]
        t = apply_move(t, pool[rng.randrange(len(pool))])
    return t


def open_cp2():
    """cp2 less its first pentachoron: a complex with boundary.  Without a
    pentachoron the action is not symmetric, so rear and front faces cannot
    be told apart by symmetry alone."""
    t = builtin_manifold("cp2")
    return Triangulation("cp2-open", t.pentachora[1:], t.signs[1:])


# --- product manifolds -----------------------------------------------------

S1 = ((0, 1), (0, 2), (1, 2))
S2 = tuple(combinations(range(4), 3))
S3 = tuple(combinations(range(5), 4))
# the 7-vertex torus: triangles {i, i+1, i+3} and {i, i+2, i+3} mod 7
T2 = tuple(sorted(tuple(sorted((i + a) % 7 for a in tri))
                  for i in range(7) for tri in ((0, 1, 3), (0, 2, 3))))


def staircase_product(name, a, b):
    """The staircase triangulation of |A| x |B| (Eilenberg-Zilber 1953) for
    complexes given by their top simplices, vertices ordered by id: a p-simplex
    of A and a q-simplex of B give one (p+q)-simplex per monotone lattice
    path from (0, 0) to (p, q), on the vertices (a_i, b_j) it passes.  Vertex
    (a_i, b_j) is numbered a_i * |B| + b_j, so each path climbs in id."""
    nb = 1 + max(v for s in b for v in s)
    pents = set()
    for s in a:
        for t in b:
            p, q = len(s) - 1, len(t) - 1
            for rises in combinations(range(p + q), p):
                i = j = 0
                verts = [s[0] * nb + t[0]]
                for step in range(p + q):
                    i, j = (i + 1, j) if step in rises else (i, j + 1)
                    verts.append(s[i] * nb + t[j])
                pents.add(tuple(verts))
    return orient(Triangulation(name, tuple(sorted(pents))))


@lru_cache(maxsize=None)
def product_manifold(name):
    """S1xS3 (60 pentachora), S2xS2 (96) or T2xS2 (336)."""
    factors = {"s1xs3": (S1, S3), "s2xs2": (S2, S2), "t2xs2": (T2, S2)}
    return staircase_product(name, *factors[name])


# --- value distributions by enumeration of every coloring ----------------


def _functional_codes(space, field: GF, tet) -> list[int]:
    """Codes of (x_t + y_t) on each basis vector, for one tetrahedron."""
    nt = len(space.tets)
    i = space.tets.index(tet)
    return [field.add_codes(vec[i], vec[nt + i]) for vec in space.basis]


def _enumerate_functional(field: GF, codes: list[int]) -> np.ndarray:
    """Values of the linear functional with the given basis coefficients on
    every point of the coefficient space, as an array of field codes."""
    mul = field.mul_table()
    add = field.add_table()
    vals = np.zeros(1, dtype=np.int16)
    for l in codes:
        col = mul[:, l].astype(np.int16)          # contribution per digit choice
        vals = add[col[:, None], vals[None, :]].reshape(-1).astype(np.int16)
    return vals


def enumerated_distribution(t: Triangulation, spec: FrobeniusSpec,
                             value_model: str = "field",
                             cap: int | None = None) -> ValueDistribution:
    """Exact distribution of action values over all permitted colorings,
    by evaluating the action on every one of them.

    The base coloring runs over the permitted space over GF(p^n); the Latin
    and Greek halves are its p^m1-th and p^m2-th Frobenius powers (Frobenius
    commutes with the integer constraint matrix, so both halves stay
    permitted).  Value model "field" multiplies in GF(p^n); "tensor" takes
    coefficientwise outer products, landing in n x n matrices over GF(p).
    """
    if value_model not in ("field", "tensor"):
        raise ValueError(f"unknown value model {value_model!r}")
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    field = spec.field()
    space = permitted_space(t, field)
    d = space.dim
    total = field.q ** d
    limit = enumeration_cap(cap)
    if total > limit:
        raise CapExceeded(f"enumeration needs {field.q}^{d} colorings, cap is {limit}")

    # reference-counted per-tetrahedron value arrays
    need: dict = {}
    plan = []
    for u in t.pentachora:
        fs = faces(u)
        rear, front = fs[0], fs[4]
        plan.append((rear, front))
        need[rear] = need.get(rear, 0) + 1
        need[front] = need.get(front, 0) + 1
    cache: dict = {}

    def tet_values(tet) -> np.ndarray:
        if tet not in cache:
            cache[tet] = _enumerate_functional(field, _functional_codes(space, field, tet))
        return cache[tet]

    def release(tet) -> None:
        need[tet] -= 1
        if need[tet] == 0:
            cache.pop(tet, None)

    add = field.add_table()
    mul = field.mul_table()
    neg = field.neg_table()
    fr1 = field.frobenius_table(spec.m1)
    fr2 = field.frobenius_table(spec.m2)

    if value_model == "field":
        s_vals = np.zeros(total, dtype=np.int16)
        for sign, (rear, front) in zip(t.signs, plan):
            a = fr1[tet_values(rear)]
            b = fr2[tet_values(front)]
            release(rear)
            release(front)
            prod = mul[a, b]
            if sign == -1:
                prod = neg[prod]
            s_vals = add[s_vals, prod].astype(np.int16)
        counts = np.bincount(s_vals, minlength=field.q)
        entries = tuple((int(k), int(c)) for k, c in enumerate(counts) if c)
        return ValueDistribution("field", spec, entries, d)

    # tensor model: accumulate each coefficient of the outer product mod p
    n = field.n
    p = field.p
    coeff = [field.coeff_table(s) for s in range(n)]
    acc = [[np.zeros(total, dtype=np.int16) for _ in range(n)] for _ in range(n)]
    for sign, (rear, front) in zip(t.signs, plan):
        a = fr1[tet_values(rear)]
        b = fr2[tet_values(front)]
        release(rear)
        release(front)
        sgn = 1 if sign == 1 else p - 1
        a_co = [coeff[s][a] for s in range(n)]
        b_co = [coeff[tt][b] for tt in range(n)]
        for s in range(n):
            for tt in range(n):
                acc[s][tt] = (acc[s][tt] + sgn * a_co[s] * b_co[tt]) % p
    key = np.zeros(total, dtype=np.int64)
    weight = 1
    for s in range(n):
        for tt in range(n):
            key += acc[s][tt].astype(np.int64) * weight
            weight *= p
    values, counts = np.unique(key, return_counts=True)
    entries = tuple((int(k), int(c)) for k, c in zip(values, counts))
    return ValueDistribution("tensor", spec, entries, d)


def brute_force_counts(m, spec, value_model):
    """Sorted (key, count) pairs of phi1(a)^T M phi2(a) over every a in
    GF(q)^d, in field arithmetic (coefficientwise outer products in the
    tensor model), for a matrix M over GF(p)."""
    f = spec.field()
    p, n, q, d = f.p, f.n, f.q, len(m)
    mul = [[f.mul_codes(a, b) for b in range(q)] for a in range(q)]
    fr1 = [f.frobenius_code(a, spec.m1) for a in range(q)]
    fr2 = [f.frobenius_code(a, spec.m2) for a in range(q)]
    counts = {}
    for code in range(q ** d):
        a = [code // q ** i % q for i in range(d)]
        x, y = [fr1[c] for c in a], [fr2[c] for c in a]
        if value_model == "field":
            key = 0
            for i in range(d):
                for j in range(d):
                    key = f.add_codes(key, mul[m[i][j] % p][mul[x[i]][y[j]]])
        else:
            acc = [0] * (n * n)
            for i in range(d):
                for j in range(d):
                    xs, ys = f.decode(x[i]), f.decode(y[j])
                    for s in range(n):
                        for t in range(n):
                            acc[s * n + t] += m[i][j] * xs[s] * ys[t]
            key = sum(v % p * p ** j for j, v in enumerate(acc))
        counts[key] = counts.get(key, 0) + 1
    return tuple(sorted(counts.items()))


# --- cocycle checks by evaluation on every coloring -----------------------


# the enumerated cocycle check holds about 15 int64 arrays of q^dim entries
# (dim = 9): GF(5)'s 5^9 ~ 1.95 * 10^6, the largest field it is given, takes
# about 250 MB, and GF(9)'s 9^9 would take over 40 GB
ENUMERATION_BOUND = 2_000_000


def enumerated_cocycle_check(c, field: GF) -> bool:
    """Evaluate the alternating facet sum of the polynomial on every
    permitted coloring of the boundary of the 5-simplex.  Each facet's
    value is looked up in a table of the polynomial on all of GF(q)^5,
    filled by evaluating it point by point in field arithmetic.  ValueError
    past ENUMERATION_BOUND colorings, before anything is allocated."""
    from hexaform.cocycles import FACE_VARIABLES
    s4 = boundary_delta5()
    space = permitted_space(s4, field)
    q = field.q
    if q ** space.dim > ENUMERATION_BOUND:
        raise ValueError(f"enumeration needs {q}^{space.dim} colorings, "
                         f"bound is {ENUMERATION_BOUND}")
    tet_vals = {tet: _enumerate_functional(field, [vec[i] for vec in space.basis])
                .astype(np.int64) for i, tet in enumerate(space.tets)}
    table = []
    for point in range(q ** 5):
        digits = [point // q ** k % q for k in range(5)]
        # prime fields evaluate in integers (reduced mod p), others in GF(q)
        values = digits if field.n == 1 else [field.from_code(x) for x in digits]
        v = c.poly.evaluate(dict(zip(c.poly.variables, values)))
        table.append(v if isinstance(v, int) else v.code)
    table = np.array(table, dtype=np.int64)
    add = field.add_table()
    neg = field.neg_table()
    acc = np.zeros(q ** space.dim, dtype=np.int64)
    for sign, u in zip(s4.signs, s4.pentachora):
        face_of = dict(zip(FACE_VARIABLES, faces(u)))
        index = sum(tet_vals[face_of[name]] * q ** k
                    for k, name in enumerate(c.poly.variables))
        val = table[index]
        acc = add[acc, val if sign == 1 else neg[val]]
    return not np.any(acc)


# --- move search by scanning every pentachoron ---------------------------


def scan_move_parts(t: Triangulation, d: MoveDescriptor):
    """Validate a move descriptor against t by scanning every pentachoron;
    return (before, after) facets."""
    k = MOVE_KINDS[d.kind]
    n = len(t.pentachora)
    if len(set(d.target)) != k or any(i < 0 or i >= n for i in d.target):
        raise ConfigurationNotFound("target indices invalid")
    six = tuple(sorted(d.six_vertices))
    six_set = set(six)
    before = [t.pentachora[i] for i in d.target]
    omitted = []
    for u in before:
        if not set(u) <= six_set:
            raise ConfigurationNotFound(f"pentachoron {u} not supported on {six}")
        (o,) = six_set - set(u)
        omitted.append(o)
    if len(set(omitted)) != k:
        raise ConfigurationNotFound("target pentachora are not distinct facets")
    if d.kind == "1-5":
        fresh = omitted[0]
        if fresh in t.vertex_ids:
            raise StaleVertex(f"new vertex {fresh} already present")
    rest = [u for i, u in enumerate(t.pentachora) if i not in d.target]
    if d.kind == "5-1":
        (gone,) = six_set - set(omitted)
        if any(gone in u for u in rest):
            raise LinkConditionViolation(f"vertex {gone} still used outside the move support")
    # simplices interior to the union of the before facets must not meet the
    # rest of the triangulation, and simplices that become interior to the
    # replacement union must not pre-exist there either
    o_set = set(omitted)
    for core, extras in ((six_set - o_set, o_set), (o_set, six_set - o_set)):
        for extra in range(0, 5 - len(core)):
            for s in combinations(sorted(extras), extra):
                sigma = core | set(s)
                if not sigma or len(sigma) > 4 or set(s) == extras:
                    continue
                for u in rest:
                    if sigma <= set(u):
                        raise LinkConditionViolation(
                            f"interior simplex {tuple(sorted(sigma))} meets pentachoron {u}")
    after = [tuple(v for v in six if v != o) for o in sorted(six_set - o_set)]
    for u in after:
        if u in t.pentachora:
            raise LinkConditionViolation(f"replacement pentachoron {u} already present")
    return before, after


def scan_find_moves(t: Triangulation, kind: str) -> list[MoveDescriptor]:
    """All valid move descriptors of the given kind, by exhaustive search
    with a scan of every pentachoron per six-vertex set."""
    if kind not in MOVE_KINDS:
        raise MoveError(f"unknown move kind {kind!r}")
    k = MOVE_KINDS[kind]
    out = []
    if kind == "1-5":
        fresh = (max(t.vertex_ids) + 1) if t.pentachora else 0
        for i, u in enumerate(t.pentachora):
            d = MoveDescriptor(kind, (i,), tuple(sorted(u + (fresh,))))
            try:
                scan_move_parts(t, d)
            except MoveError:
                continue
            out.append(d)
        return out
    verts = sorted(t.vertex_ids)
    six_sets = sorted({tuple(sorted(set(u) | {w}))
                       for u in t.pentachora for w in verts if w not in u})
    for six in six_sets:
        six_set = set(six)
        present = [i for i, u in enumerate(t.pentachora) if set(u) <= six_set]
        if len(present) < k:
            continue
        for combo in combinations(present, k):
            d = MoveDescriptor(kind, combo, six)
            try:
                scan_move_parts(t, d)
            except MoveError:
                continue
            out.append(d)
    return out
