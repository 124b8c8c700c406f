"""Seeded Pachner walks that make the benchmark's inputs, and dimensions
of those inputs computed by a route independent of hexaform's kernels.

A walk starts from a builtin manifold and applies random 1-5, 2-4 and
3-3 moves until it lands exactly on each target (pentachora, vertices)
pair in turn.  Both counts are targeted because the coloring-space
dimension of a closed triangulation grows as P/2 + 2V + const (P
pentachora, V vertices): a walk that only targets P can land on inputs
whose enumeration size q^dim differs by a factor of q^4 or more.
"""

from __future__ import annotations

import random

import numpy as np

from hexaform import triangulation as tri
from hexaform.hexagon import build_constraints
from hexaform.manifolds import builtin_manifold

# a walk that takes this many times the moves it needs has lost its way
MAX_STEP_FACTOR = 4

# rank over Q is the largest rank modulo any prime; two large primes
# both dividing a nonzero maximal minor of these small matrices is not
# a case worth a slower exact route
Q_PRIMES = (2_147_483_647, 2_147_483_629)


class WalkError(RuntimeError):
    pass


def _canonical_moves(t: tri.Triangulation, kinds) -> list[tri.MoveDescriptor]:
    """Applicable moves of the given kinds in an order that depends only on
    the triangulation, not on the order find_moves returns them in."""
    moves = [d for k in kinds for d in tri.find_moves(t, k)]
    return sorted(moves, key=lambda d: (d.kind, d.six_vertices,
                                        tuple(sorted(t.pentachora[i] for i in d.target))))


def walk(base: str, targets: list[tuple[int, int]], rng: random.Random
         ) -> list[tri.Triangulation]:
    """Walk from builtin `base` through each (pentachora, vertices) target.

    A move is allowed only while the target stays reachable: 1-5 while
    vertices are missing, 2-4 while pentachora beyond the 1-5 moves still
    to come are missing, 3-3 always.  Returns one triangulation per target.
    """
    t = builtin_manifold(base)
    out = []
    for p_goal, v_goal in targets:
        need_v = v_goal - len(t.vertex_ids)
        need_p = p_goal - len(t.pentachora) - 4 * need_v
        if need_v < 0 or need_p < 0 or need_p % 2:
            raise WalkError(f"target {(p_goal, v_goal)} is unreachable from "
                            f"{(len(t.pentachora), len(t.vertex_ids))}")
        budget = MAX_STEP_FACTOR * (need_v + need_p // 2) + 1
        while (len(t.pentachora), len(t.vertex_ids)) != (p_goal, v_goal):
            need_v = v_goal - len(t.vertex_ids)
            need_p = p_goal - len(t.pentachora) - 4 * need_v
            kinds = [k for k, ok in (("1-5", need_v > 0), ("2-4", need_p > 0),
                                     ("3-3", True)) if ok]
            moves = _canonical_moves(t, kinds)
            budget -= 1
            if not moves or budget < 0:
                raise WalkError(f"walk from {base} stuck at "
                                f"{(len(t.pentachora), len(t.vertex_ids))}")
            t = tri.apply_move(t, moves[rng.randrange(len(moves))])
        out.append(t)
    return out


def relabeled(base: str, rng: random.Random) -> tri.Triangulation:
    """The builtin manifold under a random vertex permutation: the same
    manifold and orientation class, but a distinct input."""
    t = builtin_manifold(base)
    verts = sorted(t.vertex_ids)
    image = verts[:]
    rng.shuffle(image)
    return tri.relabel(t, dict(zip(verts, image)))


def rank_mod(rows, p: int) -> int:
    """Rank of an integer matrix modulo the prime p, by numpy elimination."""
    a = np.array(rows, dtype=np.int64) % p
    m, n = a.shape
    r = 0
    for c in range(n):
        if r == m:
            break
        nz = np.flatnonzero(a[r:, c])
        if nz.size == 0:
            continue
        piv = r + nz[0]
        if piv != r:
            a[[r, piv]] = a[[piv, r]]
        a[r] = (a[r] * pow(int(a[r, c]), p - 2, p)) % p
        below = np.flatnonzero(a[r + 1:, c]) + r + 1
        if below.size:
            # entries stay below p < 2^31, so products fit in int64
            a[below] = (a[below] - np.outer(a[below, c], a[r])) % p
        r += 1
    return r


def describe(t: tri.Triangulation) -> dict:
    """Sizes of one input.  Dimensions are kernel dimensions of the integer
    constraint matrix, from ranks modulo primes (the GF(p^n) dimension is
    the GF(p) one, since the matrix is integral)."""
    rows = build_constraints(t).rows
    n = len(rows[0])
    return {
        "pentachora": len(t.pentachora),
        "vertices": len(t.vertex_ids),
        "tetrahedra": len(t.tetrahedra()),
        "z_dim": n - max(rank_mod(rows, p) for p in Q_PRIMES),
        "gf_dim": {str(p): n - rank_mod(rows, p) for p in (2, 3)},
    }
