"""Hexagon-relation machinery: the 5x5 constraint matrix, permitted
colorings, the bilinear pentachoron cocycle and the action it induces.

A coloring assigns a pair (x_t, y_t) to every tetrahedron t.  It is
permitted when, on every pentachoron, the y-column equals the constraint
matrix applied to the x-column (faces taken in inverse lexicographic
order).  The pentachoron cocycle multiplies a rear-face quantity of one
coloring with a front-face quantity of another; summing over pentachora
with orientation signs gives the action.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .gf import GF
from .triangulation import Triangulation, Pentachoron, faces

# rows: coefficients producing y_t on each face from the five x-values
R_MATRIX: tuple[tuple[int, ...], ...] = (
    (0, -2, 1, 1, -2),
    (0, -1, 0, 1, -1),
    (-1, 2, -2, 0, 1),
    (-1, 3, -2, -1, 2),
    (0, 1, -1, 0, 0),
)


@dataclass(frozen=True)
class ConstraintSystem:
    """Linear system cutting out the permitted colorings of a triangulation.

    Variables: one x_t and one y_t per tetrahedron, tetrahedra sorted
    lexicographically, x-block before y-block.  Rows are integer for every
    ring; the solution basis is reduced into the finite field, if any.
    """

    triangulation: Triangulation
    tets: tuple
    rows: tuple
    ring: GF | None = None  # None means Z

    @property
    def num_variables(self) -> int:
        return 2 * len(self.tets)


def build_constraints(t: Triangulation, ring: GF | None = None,
                      r_matrix=R_MATRIX) -> ConstraintSystem:
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
    return ConstraintSystem(t, tets, tuple(rows), ring)


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


@dataclass(frozen=True)
class PermittedSpace:
    """Basis of the solution module/space of a constraint system."""

    ring: GF | None
    tets: tuple
    basis: tuple  # tuple of value vectors (lists), x-block then y-block

    @property
    def dim(self) -> int:
        return len(self.basis)

    def coloring(self, i: int) -> Coloring:
        return Coloring(self.tets, self.basis[i], self.ring)

    def colorings(self):
        return [self.coloring(i) for i in range(self.dim)]

    def combination(self, coeffs) -> Coloring:
        if len(coeffs) != self.dim:
            raise ValueError("coefficient count mismatch")
        n = 2 * len(self.tets)
        if self.ring is None:
            vals = [sum(c * b[k] for c, b in zip(coeffs, self.basis)) for k in range(n)]
        else:
            vals = [sum((c * b[k] for c, b in zip(coeffs, self.basis)),
                        self.ring.zero) for k in range(n)]
        return Coloring(self.tets, vals, self.ring)


def solve_permitted(system: ConstraintSystem) -> PermittedSpace:
    """Exact basis of all permitted colorings, by one sparse kernel route
    for every ring.

    Each row carries exactly one y-entry, with coefficient 1.  The first
    row of a tetrahedron defines its y_t; each later row of the same
    tetrahedron minus that defining row is a row on the x-variables alone.
    The kernel of that x-only system, lifted by y = -(defining x-part) x,
    is the kernel of the whole system.  `linalg.sparse_kernel` gives the
    x-kernel over Z, or mod p over GF(p^n): unit-pivot elimination, with a
    Smith decomposition only of whatever rows no +-1 pivot clears.

    Over Z the basis is saturated and Hermite-canonical (every pivot lies
    in the x-block).  Over a finite field it is the reduction mod p of the
    lifted kernel columns: deterministic, but not in reduced-echelon form.
    """
    nt = len(system.tets)
    defining: dict[int, dict[int, int]] = {}
    x_rows = []
    for row in system.rows:
        entries = {j: v for j, v in enumerate(row) if v}
        ys = [j for j in entries if j >= nt]
        if len(ys) != 1 or entries.pop(ys[0]) != 1:
            raise ValueError("each constraint row needs exactly one y-entry, equal to 1")
        t = ys[0] - nt
        if t in defining:
            diff = dict(entries)
            for j, v in defining[t].items():
                w = diff.get(j, 0) - v
                if w:
                    diff[j] = w
                else:
                    del diff[j]
            x_rows.append(diff)
        else:
            defining[t] = entries
    f = system.ring
    _, cols = linalg.sparse_kernel(x_rows, nt, None if f is None else f.p)
    if f is None:
        cols = linalg.hermite_columns(cols)
    basis = [x + [-sum(v * x[j] for j, v in defining[t].items()) for t in range(nt)]
             for x in cols]
    if f is not None:
        basis = [[f(v) for v in vec] for vec in basis]
    return PermittedSpace(f, system.tets, tuple(basis))


def permitted_space(t: Triangulation, ring: GF | None = None,
                    r_matrix=R_MATRIX) -> PermittedSpace:
    return solve_permitted(build_constraints(t, ring, r_matrix))


# --- the cocycle and the action --------------------------------------------


def phi(u: Pentachoron, latin: Coloring, greek: Coloring):
    """Cocycle value on one pentachoron: rear-face (x+y) of the Latin
    coloring times front-face (xi+eta) of the Greek one."""
    fs = faces(u)
    rear, front = fs[0], fs[4]
    return (latin.x(rear) + latin.y(rear)) * (greek.x(front) + greek.y(front))


def phi_expanded(u: Pentachoron, latin: Coloring, greek: Coloring):
    """The same value written out through the constraint rows: the Latin
    factor uses coefficients (1, -2, 1, 1, -2) on all five faces, the Greek
    factor (1, -1, 1) on the middle three."""
    fs = faces(u)
    a = (latin.x(fs[0]) - 2 * latin.x(fs[1]) + latin.x(fs[2])
         + latin.x(fs[3]) - 2 * latin.x(fs[4]))
    b = greek.x(fs[1]) - greek.x(fs[2]) + greek.x(fs[4])
    return a * b


def action_value(t: Triangulation, latin: Coloring, greek: Coloring):
    """S = sum over pentachora of sign * phi, with each face's x + y read
    straight from the value vectors: the rear face of u is u[1:], the
    front face u[:4]."""
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    lv, li, ln = latin.values, latin._idx, len(latin.tets)
    gv, gi, gn = greek.values, greek._idx, len(greek.tets)
    total = None
    for sign, u in zip(t.signs, t.pentachora):
        i, j = li[u[1:]], gi[u[:4]]
        v = (lv[i] + lv[ln + i]) * (gv[j] + gv[gn + j])
        v = v if sign == 1 else -v
        total = v if total is None else total + v
    return total


@dataclass(frozen=True)
class GramResult:
    matrix: tuple          # dim x dim, entries int or GFElem
    space: PermittedSpace

    @property
    def dim(self) -> int:
        return self.space.dim

    def int_matrix(self) -> list[list[int]]:
        return [list(row) for row in self.matrix]


def gram_matrix(t: Triangulation, ring: GF | None = None,
                r_matrix=R_MATRIX) -> GramResult:
    """Gram matrix of the action on the canonical permitted basis."""
    space = permitted_space(t, ring, r_matrix)
    cols = space.colorings()
    g = tuple(tuple(action_value(t, a, b) for b in cols) for a in cols)
    return GramResult(g, space)


# --- symmetry coboundary ----------------------------------------------------


def coboundary_terms(u: Pentachoron, latin: Coloring, greek: Coloring):
    """Per-face terms (x_t + y_t) * eta_t.  On permitted colorings their
    alternating sum over the five faces equals phi(greek, latin) minus
    phi(latin, greek), so the action's asymmetry is a coboundary."""
    return [(latin.x(tet) + latin.y(tet)) * greek.y(tet) for tet in faces(u)]


def coboundary_terms_alt(u: Pentachoron, latin: Coloring, greek: Coloring):
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


def verify_cocycle(ring: GF | None = None, r_matrix=R_MATRIX) -> dict:
    """Exact check of the hexagon 4-cocycle property on the boundary of the
    5-simplex: the Gram matrix of the action on the full permitted basis
    must vanish identically."""
    from .triangulation import boundary_delta5
    g = gram_matrix(boundary_delta5(), ring, r_matrix)
    if ring is None:
        ok = all(v == 0 for row in g.matrix for v in row)
    else:
        ok = all(v.code == 0 for row in g.matrix for v in row)
    return {"ring": "Z" if ring is None else repr(ring), "dim": g.dim, "cocycle": ok}
