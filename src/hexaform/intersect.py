"""Cup-product intersection form baseline.

Triangles carry single values forming a simplicial 2-cocycle; the
pentachoron cocycle multiplies the front triangle value of one coloring
with the rear triangle value of another.  That is the signed pentachoron
pairing of `hexagon.pairing` on triangles instead of tetrahedra, so the
cup Gram is a product of face rows like the hexagon Gram.  On a closed
oriented manifold the resulting Gram matrix, quotiented by coboundaries,
is the classical intersection form; this module also probes whether the
hexagon Z-form agrees with it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from . import linalg
from .hexagon import GramResult, gram_matrix, pairing
from .invariants import FormInvariants, form_invariants
from .triangulation import Triangulation


@dataclass(frozen=True)
class TwoCocycleSpace:
    triangles: tuple
    basis: tuple

    @property
    def dim(self) -> int:
        return len(self.basis)


def _cocycle_rows(t: Triangulation, k: int):
    """The coboundary map on k-cochains, as `linalg.sparse_kernel` reads it:
    one row {column: entry} per (k+1)-simplex, one column per k-simplex,
    the face omitting vertex r weighted (-1)^(k+1-r)."""
    cells = tuple(t.simplices(k))
    idx = {s: i for i, s in enumerate(cells)}
    rows = [{idx[s[:r] + s[r + 1:]]: (-1) ** (k + 1 - r) for r in range(k + 2)}
            for s in t.simplices(k + 1)]
    return cells, rows


def solve_2cocycles(t: Triangulation) -> TwoCocycleSpace:
    """Kernel of the tetrahedron-coboundary system over triangles: the
    integral 2-cocycles, as the saturated basis `linalg.sparse_kernel`
    returns."""
    triangles, rows = _cocycle_rows(t, 2)
    if not rows:
        raise ValueError("triangulation has no tetrahedra")
    _, basis = linalg.sparse_kernel(rows, len(triangles))
    return TwoCocycleSpace(triangles, tuple(basis))


def cup_gram(t: Triangulation) -> GramResult:
    """Gram matrix of sum over pentachora of sign * x_front * xi_rear on the
    integral 2-cocycle basis (both coloring copies share the basis): the
    pairing of the front triangle u[:3] with the rear triangle u[2:]."""
    space = solve_2cocycles(t)
    return GramResult(pairing(t, space.triangles, space.basis, slice(0, 3), slice(2, 5)),
                      space)


def reduced_cup_invariants(t: Triangulation) -> FormInvariants:
    """Invariants of the cup form on second cohomology Z^2 / B^2.

    On a closed, coherently oriented complex every coboundary lies in the
    radical of the cup Gram, since <da u b, [M]> = <a u b, d[M]> = 0.  The
    quotient form therefore has the same nondegenerate part as the Gram on
    the whole cocycle lattice; only the dimensions change, to
    dim Z^2 - rank B^2 with rank B^2 the rank of the edge coboundary map.
    """
    if not t.is_closed():
        raise ValueError("the cohomology cup form needs a closed triangulation")
    gram = cup_gram(t)
    edges, delta1 = _cocycle_rows(t, 1)
    rank, _ = linalg.sparse_kernel(delta1, len(edges))
    dim = gram.dim - rank
    inv = form_invariants(gram.matrix)
    return replace(inv, total_dim=dim, radical_dim=dim - inv.rank)


COMPARED_FIELDS = ("rank", "signature", "det", "parity", "factors")


def compare_forms(t: Triangulation) -> dict:
    """Probe whether the hexagon Z-form matches the intersection form.

    Produces a report of both invariant tuples and which fields agree;
    evidence only, never a proof either way.
    """
    if not t.is_closed():
        raise ValueError("comparison needs a closed triangulation")
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    hexagon_inv = form_invariants(gram_matrix(t).matrix)
    cup_inv = reduced_cup_invariants(t)
    h_json, c_json = hexagon_inv.to_json(), cup_inv.to_json()
    equal = [f for f in COMPARED_FIELDS if h_json[f] == c_json[f]]
    return {
        "manifold": t.name,
        "hexagon": h_json,
        "cup": c_json,
        "equal_fields": equal,
    }
