"""Hexagon-relation machinery: the 5x5 constraint matrix, permitted
colorings, the bilinear pentachoron cocycle and the action it induces.

A coloring assigns a pair (x_t, y_t) to every tetrahedron t, held as one
value vector: the x-block, then the y-block, tetrahedra sorted
lexicographically.  It is permitted when, on every pentachoron, the
y-column equals the constraint matrix applied to the x-column (faces taken
in inverse lexicographic order): five sparse rows per pentachoron, whose
kernel over Z or mod p is one `linalg.sparse_kernel` call.  The
pentachoron cocycle multiplies the (x+y) of one coloring on the rear face
u[1:] with the (x+y) of another on the front face u[:4]; summing over
pentachora with orientation signs gives the action S.  On a basis,
S(a, b) is the dot product of a's signed rear-face row with b's
front-face row, so the Gram matrix is the product R^T F of the two face
matrices.  `pairing` computes that product for any two faces of a
pentachoron, each entry one `action_value` dot product over the support
of the left row only, since the face rows are mostly zero; the cup form of
`intersect` pairs the front and rear triangles through it.

The constraint matrix is integral, so over GF(p^n) the permitted space is
the GF(p) space tensored up: its basis entries are plain residues mod p,
and so are the Gram entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress, repeat
from operator import mul

from . import linalg
from .gf import GF
from .triangulation import Triangulation, faces

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
    lexicographically, x-block before y-block.  Five sparse rows
    {column: entry} per pentachoron, integer for every ring; over GF(p^n)
    the solution basis is reduced mod p.
    """

    triangulation: Triangulation
    tets: tuple
    sparse_rows: tuple  # one {column: nonzero entry} dict per row
    ring: GF | None = None  # None means Z

    @property
    def num_variables(self) -> int:
        return 2 * len(self.tets)

    @property
    def rows(self) -> tuple:
        """The rows as dense tuples of num_variables entries."""
        out = []
        for entries in self.sparse_rows:
            row = [0] * self.num_variables
            for j, v in entries.items():
                row[j] = v
            out.append(tuple(row))
        return tuple(out)


def build_constraints(t: Triangulation, ring: GF | None = None,
                      r_matrix=R_MATRIX) -> ConstraintSystem:
    """Row r of pentachoron u reads y(face r) - sum_c R[r][c] x(face c) = 0."""
    tets = tuple(t.tetrahedra())
    idx = {tet: i for i, tet in enumerate(tets)}
    nt = len(tets)
    rows = []
    for u in t.pentachora:
        at = [idx[f] for f in faces(u)]
        for r, coeffs in enumerate(r_matrix):
            row = {j: -c for j, c in zip(at, coeffs) if c}
            row[nt + at[r]] = 1
            rows.append(row)
    return ConstraintSystem(t, tets, tuple(rows), ring)


@dataclass(frozen=True)
class PermittedSpace:
    """Basis of the solution module/space of a constraint system.  Over
    GF(p^n) every entry is an int in [0, p): the basis spans the GF(p)
    space, which every Frobenius power fixes."""

    ring: GF | None
    tets: tuple
    basis: tuple  # tuple of value vectors (int lists), x-block then y-block

    @property
    def dim(self) -> int:
        return len(self.basis)


def solve_permitted(system: ConstraintSystem) -> PermittedSpace:
    """Exact basis of all permitted colorings: one `linalg.sparse_kernel`
    call on the whole system, over Z or mod p over GF(p^n).

    Each y-column is a unit column in at most two rows, one per pentachoron
    on its tetrahedron, so the unit-pivot elimination clears it and
    back-substitution lifts y, all kernel columns at once; a Smith
    decomposition runs only on whatever rows no +-1 pivot clears.
    Over Z the basis is the kernel columns, saturated and deterministic;
    no report depends on which basis spans the lattice.  Over GF(p^n) it
    is their reduction mod p, as ints in [0, p): deterministic, but not
    in reduced-echelon form.
    """
    p = None if system.ring is None else system.ring.p
    _, basis = linalg.sparse_kernel(list(system.sparse_rows), system.num_variables, p)
    if p is not None:
        basis = [[v % p for v in vec] for vec in basis]
    return PermittedSpace(system.ring, system.tets, tuple(basis))


def permitted_space(t: Triangulation, ring: GF | None = None,
                    r_matrix=R_MATRIX) -> PermittedSpace:
    return solve_permitted(build_constraints(t, ring, r_matrix))


# --- the cocycle and the action --------------------------------------------


def pairing(t: Triangulation, cells, values, left: slice, right: slice) -> tuple:
    """The signed pentachoron pairing of value vectors over `cells`: entry
    (a, b) is the sum over pentachora u of sign_u * a[u[left]] * b[u[right]],
    so the matrix is L^T F of the face rows.

    The face rows are mostly zero, so each entry is one `action_value` dot
    product over the support of a's left-face row only: a's signed values
    there against b's right-face values at the same pentachora, read off
    the right-face matrix held one column per pentachoron."""
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    idx = {cell: i for i, cell in enumerate(cells)}
    left_at = [idx[u[left]] for u in t.pentachora]
    right_at = [idx[u[right]] for u in t.pentachora]
    cols = [[v[j] for v in values] for j in right_at]
    no_rows = [()] * len(values)
    matrix = []
    for a in values:
        face = list(map(mul, t.signs, map(a.__getitem__, left_at)))
        signed = list(compress(face, face))
        rights = zip(*compress(cols, face)) if signed else no_rows
        matrix.append(tuple(map(action_value, repeat(signed), rights)))
    return tuple(matrix)


def action_value(left: list, right: list):
    """One pairing entry: the dot product of a signed left-face row with a
    right-face row.  On rear and front faces it is the action S(a, b), the
    sum over pentachora of sign * phi."""
    return sum(map(mul, left, right))


def _gram(t: Triangulation, space: PermittedSpace) -> tuple:
    """The action on every pair of basis vectors: the pairing of their
    (x+y) values, rear face u[1:] against front face u[:4]; reduced mod p
    over GF(p^n)."""
    nt = len(space.tets)
    sums = [[vec[i] + vec[nt + i] for i in range(nt)] for vec in space.basis]
    g = pairing(t, space.tets, sums, slice(1, 5), slice(0, 4))
    if space.ring is None:
        return g
    p = space.ring.p
    return tuple(tuple(v % p for v in row) for row in g)


@dataclass(frozen=True)
class GramResult:
    """A Gram matrix with the basis it is taken on: a permitted space, or
    the 2-cocycle space of `intersect.cup_gram`."""

    matrix: tuple          # dim x dim ints, residues mod p over GF(p^n)
    space: PermittedSpace  # or intersect.TwoCocycleSpace

    @property
    def dim(self) -> int:
        return self.space.dim


def gram_matrix(t: Triangulation, ring: GF | None = None,
                r_matrix=R_MATRIX) -> GramResult:
    """Gram matrix of the action on the permitted basis."""
    space = permitted_space(t, ring, r_matrix)
    return GramResult(_gram(t, space), space)


def verify_cocycle(ring: GF | None = None, r_matrix=R_MATRIX) -> dict:
    """Exact check of the hexagon 4-cocycle property on the boundary of the
    5-simplex: the Gram matrix of the action on the full permitted basis
    must vanish identically."""
    from .triangulation import boundary_delta5
    g = gram_matrix(boundary_delta5(), ring, r_matrix)
    ok = all(v == 0 for row in g.matrix for v in row)
    return {"ring": "Z" if ring is None else repr(ring), "dim": g.dim, "cocycle": ok}
