"""Independent slow routes that the tests hold the package's fast paths to,
and the seeded inputs they share."""

import random
from functools import lru_cache

import numpy as np

from hexaform import linalg
from hexaform.gf import GF
from hexaform.hexagon import permitted_space, phi
from hexaform.invariants import (CapExceeded, FrobeniusSpec, ValueDistribution,
                                 enumeration_cap)
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import (MOVE_KINDS, Triangulation, apply_move,
                                    boundary_delta5, faces, find_moves)


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


def action_by_phi(t, latin, greek):
    """The action as the sum over pentachora of sign * phi, through the
    Coloring accessors."""
    total = None
    for sign, u in zip(t.signs, t.pentachora):
        v = phi(u, latin, greek)
        v = v if sign == 1 else -v
        total = v if total is None else total + v
    return total


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


# --- value distributions by enumeration of every coloring ----------------


def _functional_codes(space, field: GF, tet) -> list[int]:
    """Codes of (x_t + y_t) on each basis vector, for one tetrahedron."""
    nt = len(space.tets)
    i = space.tets.index(tet)
    return [field.add_codes(vec[i].code, vec[nt + i].code) for vec in space.basis]


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
        raise CapExceeded(total, limit)

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
        return ValueDistribution("field", spec, entries, total)

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
    return ValueDistribution("tensor", spec, entries, total)


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


def enumerated_cocycle_check(c, field: GF) -> bool:
    """Evaluate the alternating facet sum of the polynomial on every
    permitted coloring of the boundary of the 5-simplex.  Each facet's
    value is looked up in a table of the polynomial on all of GF(q)^5,
    filled by evaluating it point by point in field arithmetic."""
    from hexaform.cocycles import FACE_VARIABLES
    s4 = boundary_delta5()
    space = permitted_space(s4, field)
    q = field.q
    tet_vals = {tet: _enumerate_functional(field, [vec[i].code for vec in space.basis])
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
