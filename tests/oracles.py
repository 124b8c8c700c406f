"""Independent slow routes that the tests hold the package's fast paths to,
and the seeded inputs they share."""

import random
from functools import lru_cache

from hexaform import linalg
from hexaform.hexagon import phi
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import MOVE_KINDS, apply_move, find_moves


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
