"""Constraint systems, permitted colorings, the cocycle and the action."""

import random
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hexaform import hexagon, intersect, linalg
from hexaform.gf import gf_nullspace, make_field
from hexaform.hexagon import (R_MATRIX, build_constraints, gram_matrix, pairing,
                              permitted_space, verify_cocycle)
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import (MOVE_KINDS, Triangulation, apply_move,
                                    boundary_delta5, faces, find_moves)
from oracles import (Coloring, action_by_phi, action_of, coboundary_terms,
                     coboundary_terms_alt, colorings, combination, cp2_walk,
                     dense_constraints, dense_kernel, dense_pairing, forbid_smith,
                     gram_by_phi, mat_mul, mat_vec, open_cp2, phi, phi_expanded, rank_mod,
                     same_saturated_lattice, symmetry_defect, transpose)

SINGLE = Triangulation("one", ((0, 1, 2, 3, 4),))

R_EXPECTED = (
    (0, -2, 1, 1, -2),
    (0, -1, 0, 1, -1),
    (-1, 2, -2, 0, 1),
    (-1, 3, -2, -1, 2),
    (0, 1, -1, 0, 0),
)


# the entry (0, 0) bump that breaks the cocycle property
PERTURBED_R = tuple(tuple(v + (1 if (r, c) == (0, 0) else 0) for c, v in enumerate(row))
                    for r, row in enumerate(R_MATRIX))


def s4_walk(seed=5, n=5):
    rng = random.Random(seed)
    t = builtin_manifold("s4")
    for _ in range(n):
        pool = [d for kind in MOVE_KINDS for d in find_moves(t, kind)]
        t = apply_move(t, pool[rng.randrange(len(pool))])
    return t


# the Gram against its entry-by-entry oracle; the open input is asymmetric
GRAM_INPUTS = [lambda: builtin_manifold("s4"), lambda: builtin_manifold("cp2"), cp2_walk,
               open_cp2]
GRAM_IDS = ["s4", "cp2", "cp2-walk", "cp2-open"]


def random_coloring(space, rng, lo=-4, hi=5):
    return combination(space, [rng.randrange(lo, hi) for _ in range(space.dim)])


def random_gf_coloring(space, rng):
    f = space.ring
    return combination(space, [f(rng.randrange(f.q)) for _ in range(space.dim)])


def random_code_coloring(space, rng):
    """A coloring with coefficients drawn from all of GF(q), combined on
    field codes through the lookup tables rather than GFElem arithmetic
    (a residue mod p is the code of its GF(p) element)."""
    f = space.ring
    add, mul = f.add_table(), f.mul_table()
    acc = np.zeros(len(space.basis[0]), dtype=np.int64)
    for vec in space.basis:
        acc = add[acc, mul[rng.randrange(f.q), vec]]
    return Coloring(space.tets, [f.from_code(int(a)) for a in acc], f)


def test_r_matrix_constant():
    assert R_MATRIX == R_EXPECTED


class TestConstraints:
    def test_single_pentachoron_counts(self):
        c = build_constraints(SINGLE)
        assert len(c.rows) == 5
        assert c.num_variables == 10

    def test_boundary_delta5_counts(self):
        c = build_constraints(boundary_delta5())
        assert len(c.rows) == 30
        assert c.num_variables == 30

    def test_zero_coloring_satisfies(self):
        c = build_constraints(boundary_delta5())
        for row in c.rows:
            assert sum(v * 0 for v in row) == 0

    def test_rows_encode_y_equals_rx(self):
        c = build_constraints(SINGLE)
        tets = c.tets
        rng = random.Random(1)
        x = [rng.randrange(-5, 6) for _ in tets]
        fs = faces(SINGLE.pentachora[0])
        y = [sum(R_MATRIX[r][j] * x[tets.index(fs[j])] for j in range(5))
             for r in range(5)]
        vec = x + [y[fs.index(tet)] for tet in tets]
        for row in c.rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0

    @pytest.mark.parametrize("make,r_matrix", [
        (lambda: SINGLE, R_MATRIX), (lambda: builtin_manifold("s4"), R_MATRIX),
        (lambda: builtin_manifold("cp2"), R_MATRIX), (cp2_walk, R_MATRIX),
        (lambda: builtin_manifold("cp2"), PERTURBED_R),
    ], ids=["single", "s4", "cp2", "cp2-walk", "cp2-perturbed"])
    def test_sparse_rows_match_the_dense_builder(self, make, r_matrix):
        t = make()
        c = build_constraints(t, r_matrix=r_matrix)
        assert c.rows == dense_constraints(t, r_matrix)
        assert all(v for row in c.sparse_rows for v in row.values())


class TestPermittedSpace:
    def test_single_pentachoron_dims(self):
        assert permitted_space(SINGLE).dim == 5
        for f in (make_field(2), make_field(3), make_field(2, 2)):
            assert permitted_space(SINGLE, f).dim == 5

    def test_boundary_delta5_integer_dim(self):
        assert permitted_space(boundary_delta5()).dim == 9

    def test_boundary_delta5_field_dims(self):
        # rank does not drop mod any of these primes
        for f in (make_field(2), make_field(3), make_field(5), make_field(7)):
            assert permitted_space(boundary_delta5(), f).dim == 9

    def test_basis_satisfies_system(self):
        space = permitted_space(boundary_delta5())
        sys = build_constraints(boundary_delta5())
        for vec in space.basis:
            for row in sys.rows:
                assert sum(c * v for c, v in zip(row, vec)) == 0


class TestSmithRoute:
    """The y-eliminated sparse route against the full 5P x 2T system."""

    @pytest.mark.parametrize("make", [lambda: SINGLE, lambda: builtin_manifold("s4"),
                                      lambda: builtin_manifold("cp2"), s4_walk, cp2_walk],
                             ids=["single", "s4", "cp2", "s4-walk", "cp2-walk"])
    def test_z_basis_is_the_full_system_kernel(self, make):
        t = make()
        rows = [list(r) for r in build_constraints(t).rows]
        assert same_saturated_lattice(list(permitted_space(t).basis), dense_kernel(rows))

    @pytest.mark.parametrize("make", [lambda: builtin_manifold("cp2"), cp2_walk],
                             ids=["cp2", "cp2-walk"])
    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_gf_basis_against_the_dense_rank(self, make, p):
        t = make()
        rows = [list(r) for r in build_constraints(t).rows]
        space = permitted_space(t, make_field(p))
        assert all(type(x) is int and 0 <= x < p for vec in space.basis for x in vec)
        assert space.dim == 2 * len(space.tets) - rank_mod(rows, p)
        for vec in space.basis:
            assert all(x % p == 0 for x in mat_vec(rows, vec))
        assert rank_mod(space.basis, p) == space.dim

    @pytest.mark.parametrize("make", [lambda: builtin_manifold("s4"),
                                      lambda: builtin_manifold("cp2"), s4_walk, cp2_walk],
                             ids=["s4", "cp2", "s4-walk", "cp2-walk"])
    def test_unit_pivots_leave_no_residual(self, make, monkeypatch):
        t = make()
        expected = permitted_space(t).basis
        forbid_smith(monkeypatch)
        assert permitted_space(t).basis == expected

    @pytest.mark.parametrize("make", [lambda: SINGLE, lambda: builtin_manifold("s4"),
                                      s4_walk], ids=["single", "s4", "s4-walk"])
    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (5, 1), (2, 2)])
    def test_gf_basis_spans_the_gf_nullspace(self, make, p, n):
        t, f = make(), make_field(p, n)
        space = permitted_space(t, f)
        rows = [[f(v) for v in r] for r in build_constraints(t).rows]
        basis = [[f(v) for v in vec] for vec in space.basis]
        assert space.dim == len(gf_nullspace(rows, f))
        for vec in basis:
            for row in rows:
                assert sum((c * v for c, v in zip(row, vec)), f.zero) == f.zero
        # independent kernel vectors, as many as the kernel's dimension
        assert gf_nullspace([list(col) for col in zip(*basis)], f) == []

    def test_gf_dims_jump_where_p_divides_a_factor(self):
        t = builtin_manifold("cp2")
        rows = [list(r) for r in build_constraints(t, r_matrix=PERTURBED_R).rows]
        factors = [d for d in linalg.smith_normal_form(rows).diagonal if d > 1]
        assert factors == [2, 114]
        assert permitted_space(t, r_matrix=PERTURBED_R).dim == 8
        for p, dim in ((2, 10), (3, 9), (5, 8)):
            f = make_field(p)
            space = permitted_space(t, f, PERTURBED_R)
            assert space.dim == dim
            for vec in space.basis:
                for row in rows:
                    assert sum(c * v for c, v in zip(row, vec)) % p == 0


class TestPhi:
    def test_zero(self):
        z = Coloring.zero(faces(SINGLE.pentachora[0]))
        assert phi(SINGLE.pentachora[0], z, z) == 0

    def test_all_ones(self):
        # x = 1 on every face, y = R x: factors are -1 and 1
        u = SINGLE.pentachora[0]
        tets = sorted(faces(u))
        fs = faces(u)
        x = [1] * 5
        y_by_face = [sum(R_MATRIX[r][c] for c in range(5)) for r in range(5)]
        vals = x + [y_by_face[fs.index(t)] for t in tets]
        col = Coloring(tets, vals)
        assert phi(u, col, col) == -1
        assert phi_expanded(u, col, col) == -1

    def test_two_lines_agree_gf5(self):
        f = make_field(5)
        space = permitted_space(SINGLE, f)
        rng = random.Random(2)
        for _ in range(100):
            lat = random_gf_coloring(space, rng)
            grk = random_gf_coloring(space, rng)
            assert phi(SINGLE.pentachora[0], lat, grk) == \
                phi_expanded(SINGLE.pentachora[0], lat, grk)

    def test_two_lines_agree_on_integer_basis(self):
        space = permitted_space(boundary_delta5())
        cols = colorings(space)
        for u in boundary_delta5().pentachora:
            for a in cols:
                for b in cols:
                    assert phi(u, a, b) == phi_expanded(u, a, b)


class TestAction:
    def test_zero_colorings(self):
        t = boundary_delta5()
        z = Coloring.zero(t.tetrahedra())
        assert action_of(t, z, z) == 0

    def test_bilinearity_gf3(self):
        f = make_field(3)
        t = boundary_delta5()
        space = permitted_space(t, f)
        rng = random.Random(3)
        v = random_gf_coloring(space, rng)
        w = random_gf_coloring(space, rng)
        for a in range(3):
            scaled = v.map(lambda e: f(a) * e)
            assert action_of(t, scaled, w) == f(a) * action_of(t, v, w)

    def test_unoriented_rejected(self):
        with pytest.raises(ValueError):
            pairing(replace(boundary_delta5(), signs=None), (), [], slice(1, 5), slice(0, 4))

    @pytest.mark.parametrize("make", GRAM_INPUTS, ids=GRAM_IDS)
    def test_gram_matches_sum_of_phi(self, make):
        t = make()
        g = gram_matrix(t)
        assert [list(row) for row in g.matrix] == gram_by_phi(t, g.space)

    @pytest.mark.parametrize("make", GRAM_INPUTS, ids=GRAM_IDS)
    @pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
    def test_gram_over_fields_matches_sum_of_phi(self, make, p, n):
        t = make()
        g = gram_matrix(t, make_field(p, n))
        assert all(type(v) is int and 0 <= v < p for row in g.matrix for v in row)
        assert [list(row) for row in g.matrix] == \
            [[v.code for v in row] for row in gram_by_phi(t, g.space)]

    @pytest.mark.parametrize("make", [lambda: builtin_manifold("cp2"), cp2_walk, open_cp2],
                             ids=["cp2", "cp2-walk", "cp2-open"])
    @pytest.mark.parametrize("p,n", [(3, 1), (2, 2)])
    def test_matches_sum_of_phi_on_random_gf_colorings(self, make, p, n):
        t, f = make(), make_field(p, n)
        space = permitted_space(t, f)
        rng = random.Random(8)
        for _ in range(20):
            a, b = random_code_coloring(space, rng), random_code_coloring(space, rng)
            assert action_of(t, a, b) == action_by_phi(t, a, b)

    def test_vanishes_on_boundary_delta5(self):
        t = boundary_delta5()
        space = permitted_space(t)
        for a in colorings(space):
            for b in colorings(space):
                assert action_of(t, a, b) == 0


class TestGram:
    def test_boundary_delta5_zero(self):
        g = gram_matrix(boundary_delta5())
        assert g.dim == 9
        assert all(v == 0 for row in g.matrix for v in row)

    def test_congruence_transform(self):
        from hexaform import linalg
        t = builtin_manifold("cp2")
        g = gram_matrix(t)
        m = g.matrix
        rng = random.Random(4)
        # random small unimodular change of basis
        p = linalg.identity(g.dim)
        for _ in range(20):
            i, j = rng.sample(range(g.dim), 2)
            for row in p:
                row[j] += rng.choice((-1, 1)) * row[i]
        pt = transpose(p)
        transformed = mat_mul(mat_mul(pt, m), p)
        # recompute the Gram on the transformed basis directly
        cols = [combination(g.space, [p[k][b] for k in range(g.dim)])
                for b in range(g.dim)]
        direct = [[action_of(t, a, c) for c in cols] for a in cols]
        assert direct == transformed

    def test_symmetric_on_closed(self):
        m = gram_matrix(builtin_manifold("cp2")).matrix
        assert m == tuple(zip(*m))

    def test_open_gram_is_asymmetric(self):
        # so that a rear/front swap cannot pass the comparisons with gram_by_phi
        m = gram_matrix(open_cp2()).matrix
        assert m != tuple(zip(*m))

    def test_one_action_value_call_per_entry(self, monkeypatch):
        calls = []
        original = hexagon.action_value

        def counted(left, right):
            calls.append(None)
            return original(left, right)
        monkeypatch.setattr(hexagon, "action_value", counted)
        g = gram_matrix(builtin_manifold("cp2"))
        assert g.dim == 28
        assert len(calls) == g.dim ** 2


# the two face pairs `pairing` serves: the action's rear against front
# tetrahedra, the cup form's front against rear triangles
FACE_PAIRS = {"tetrahedra": (slice(1, 5), slice(0, 4)),
              "triangles": (slice(0, 3), slice(2, 5))}
PAIRING_BASES = {"s4": lambda: builtin_manifold("s4"),
                 "cp2": lambda: builtin_manifold("cp2"), "cp2-open": open_cp2}


def counted_pairing(*args):
    """`pairing` with its calls to `action_value` counted."""
    calls = []
    original = hexagon.action_value

    def counted(left, right):
        calls.append(None)
        return original(left, right)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hexagon, "action_value", counted)
        matrix = pairing(*args)
    return matrix, len(calls)


@st.composite
def pairing_inputs(draw):
    t = PAIRING_BASES[draw(st.sampled_from(sorted(PAIRING_BASES)))]()
    left, right = FACE_PAIRS[draw(st.sampled_from(sorted(FACE_PAIRS)))]
    if draw(st.booleans()):
        # any signs: `pairing` reads only pentachora and signs, so the
        # stand-in need not be a coherently oriented triangulation
        signs = draw(st.lists(st.sampled_from((1, -1)), min_size=len(t.pentachora),
                              max_size=len(t.pentachora)))
        t = SimpleNamespace(pentachora=t.pentachora, signs=tuple(signs))
    cells = sorted({u[left] for u in t.pentachora} | {u[right] for u in t.pentachora})
    n = len(cells)
    entry = st.integers(-5, 5)
    # an all-zero vector has an empty left-face support; a single nonzero
    # entry on a left face gives a support of one or two pentachora
    single = st.tuples(st.sampled_from([cells.index(u[left]) for u in t.pentachora]),
                       entry.filter(bool))
    vector = st.one_of(st.just([0] * n),
                       single.map(lambda at: [at[1] if i == at[0] else 0 for i in range(n)]),
                       st.lists(entry, min_size=n, max_size=n))
    values = draw(st.lists(vector, max_size=6))
    return t, cells, values, left, right


class TestPairing:
    @given(pairing_inputs())
    @settings(max_examples=300, deadline=None)
    def test_matches_dense_product(self, case):
        matrix, calls = counted_pairing(*case)
        assert matrix == dense_pairing(*case)
        assert calls == len(case[2]) ** 2

    @pytest.mark.parametrize("d", [0, 1])
    def test_smallest_dimensions(self, d):
        t = builtin_manifold("s4")
        cells = t.tetrahedra()
        values = [[i % 7 - 3 for i in range(len(cells))] for _ in range(d)]
        args = (t, cells, values, slice(1, 5), slice(0, 4))
        matrix, calls = counted_pairing(*args)
        assert matrix == dense_pairing(*args)
        assert len(matrix) == d and calls == d * d

    @pytest.mark.parametrize("make", GRAM_INPUTS, ids=GRAM_IDS)
    def test_bases_match_dense_product(self, make):
        # the permitted (x+y) values and the 2-cocycle basis; on the open
        # input the action is asymmetric, so a rear/front swap cannot pass
        t = make()
        space = permitted_space(t)
        nt = len(space.tets)
        sums = [[v[i] + v[nt + i] for i in range(nt)] for v in space.basis]
        args = (t, space.tets, sums, slice(1, 5), slice(0, 4))
        g = pairing(*args)
        assert g == dense_pairing(*args)
        assert (g != tuple(zip(*g))) == (t.name == "cp2-open")
        cocycles = intersect.solve_2cocycles(t)
        args = (t, cocycles.triangles, cocycles.basis, slice(0, 3), slice(2, 5))
        assert pairing(*args) == dense_pairing(*args)


class TestSymmetryCoboundary:
    def test_identity_single_pentachoron_gf7(self):
        f = make_field(7)
        space = permitted_space(SINGLE, f)
        u = SINGLE.pentachora[0]
        rng = random.Random(5)
        for _ in range(200):
            lat = random_gf_coloring(space, rng)
            grk = random_gf_coloring(space, rng)
            lhs = phi(u, grk, lat) - phi(u, lat, grk)
            terms = coboundary_terms(u, lat, grk)
            alt = coboundary_terms_alt(u, lat, grk)
            s1 = sum(((-1) ** r * v for r, v in enumerate(terms)), f.zero)
            s2 = sum(((-1) ** r * v for r, v in enumerate(alt)), f.zero)
            assert lhs == s1 == s2

    def test_identity_over_z(self):
        space = permitted_space(SINGLE)
        u = SINGLE.pentachora[0]
        rng = random.Random(6)
        for _ in range(50):
            lat = random_coloring(space, rng)
            grk = random_coloring(space, rng)
            lhs = phi(u, grk, lat) - phi(u, lat, grk)
            assert lhs == sum((-1) ** r * v
                              for r, v in enumerate(coboundary_terms(u, lat, grk)))

    def test_zero_colorings(self):
        u = SINGLE.pentachora[0]
        z = Coloring.zero(faces(u))
        assert coboundary_terms(u, z, z) == [0] * 5
        assert coboundary_terms_alt(u, z, z) == [0] * 5

    def test_defect_vanishes_on_closed(self):
        for name in ("s4", "cp2"):
            t = builtin_manifold(name)
            space = permitted_space(t)
            rng = random.Random(7)
            lat = random_coloring(space, rng)
            grk = random_coloring(space, rng)
            acc = symmetry_defect(t, lat, grk)
            assert all(v == 0 for v in acc.values())


class TestVerifyCocycle:
    def test_over_z(self):
        assert verify_cocycle()["cocycle"] is True

    @pytest.mark.parametrize("p,n", [(2, 1), (3, 1), (2, 2), (5, 1)])
    def test_over_fields(self, p, n):
        assert verify_cocycle(make_field(p, n))["cocycle"] is True

    def test_perturbed_r_fails(self):
        # negative control: bump entry (0, 0) of the constraint matrix
        assert verify_cocycle(r_matrix=PERTURBED_R)["cocycle"] is False
