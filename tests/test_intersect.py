"""Cup-product intersection form and the hexagon-form comparison probe."""

import random
from dataclasses import replace
from fractions import Fraction

import pytest

from hexaform import hexagon, linalg
from hexaform.intersect import (COMPARED_FIELDS, _cocycle_rows, compare_forms,
                                cup_gram, reduced_cup_invariants, solve_2cocycles)
from hexaform.manifolds import builtin_manifold
from hexaform.triangulation import (MOVE_KINDS, Triangulation, apply_move,
                                    boundary_delta5, find_moves, orient)
import oracles

SINGLE = orient(Triangulation("one", ((0, 1, 2, 3, 4),)))


def cp2_walk(seed=11, n=6):
    rng = random.Random(seed)
    t = builtin_manifold("cp2")
    for _ in range(n):
        pool = [d for kind in MOVE_KINDS for d in find_moves(t, kind)]
        t = apply_move(t, pool[rng.randrange(len(pool))])
    return t


CLOSED = [builtin_manifold("s4"), builtin_manifold("cp2"), cp2_walk()]


def dense_cocycle_rows(t, k):
    """`_cocycle_rows` with each sparse row written out as a dense list."""
    cells, rows = _cocycle_rows(t, k)
    return cells, [[row.get(j, 0) for j in range(len(cells))] for row in rows]


def frac_rank(rows):
    m = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for c in range(len(m[0])):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


class TestSolve2Cocycles:
    def test_single_pentachoron(self):
        space = solve_2cocycles(SINGLE)
        triangles, rows = dense_cocycle_rows(SINGLE, 2)
        assert len(triangles) == 10
        assert len(rows) == 5
        assert space.dim == 10 - frac_rank(rows)

    def test_zero_always_permitted(self):
        _, rows = dense_cocycle_rows(boundary_delta5(), 2)
        assert all(sum(0 * c for c in row) == 0 for row in rows)

    def test_basis_in_kernel(self):
        t = boundary_delta5()
        space = solve_2cocycles(t)
        _, rows = dense_cocycle_rows(t, 2)
        for vec in space.basis:
            for row in rows:
                assert sum(c * x for c, x in zip(row, vec)) == 0

    @pytest.mark.parametrize("make", [lambda: builtin_manifold("s4"),
                                      lambda: builtin_manifold("cp2"), oracles.cp2_walk],
                             ids=["s4", "cp2", "cp2-walk"])
    def test_z_basis_matches_dense_route(self, make, monkeypatch):
        t = make()
        _, rows = dense_cocycle_rows(t, 2)
        oracles.forbid_smith(monkeypatch)
        basis = list(solve_2cocycles(t).basis)
        monkeypatch.undo()
        assert oracles.same_saturated_lattice(basis, oracles.dense_kernel(rows))

    @pytest.mark.parametrize("make", [lambda: builtin_manifold("s4"),
                                      lambda: builtin_manifold("cp2"), oracles.cp2_walk],
                             ids=["s4", "cp2", "cp2-walk"])
    def test_edge_coboundary_rank_matches_smith(self, make, monkeypatch):
        t = make()
        edges, rows = _cocycle_rows(t, 1)
        _, dense = dense_cocycle_rows(t, 1)
        expected = linalg.smith_normal_form(dense).rank
        assert expected == frac_rank(dense)
        oracles.forbid_smith(monkeypatch)
        rank, _ = linalg.sparse_kernel(rows, len(edges))
        assert rank == expected

    def test_s4_second_cohomology_vanishes(self):
        # H^2(S^4) = 0: the reduced cup form has rank 0
        inv = reduced_cup_invariants(boundary_delta5())
        assert inv.rank == 0


class TestCupGram:
    def test_cp2_reduced_form(self):
        # classical result: the intersection form of CP^2 is <1> up to
        # orientation, so rank 1, |det| 1, signature concentrated on one side
        inv = reduced_cup_invariants(builtin_manifold("cp2"))
        assert inv.rank == 1
        assert abs(inv.determinant) == 1
        assert inv.signature in ((1, 0), (0, 1))
        assert inv.parity == "odd"
        assert inv.invariant_factors == (1,)

    def test_orientation_reversal_negates(self):
        t = builtin_manifold("cp2")
        flipped = replace(t, signs=tuple(-s for s in t.signs))
        g = cup_gram(t).matrix
        h = cup_gram(flipped).matrix
        assert h == tuple(tuple(-x for x in row) for row in g)
        a = reduced_cup_invariants(t)
        b = reduced_cup_invariants(flipped)
        assert a.signature == (b.signature[1], b.signature[0])

    def test_unoriented_rejected(self):
        with pytest.raises(ValueError):
            cup_gram(replace(boundary_delta5(), signs=None))

    def test_open_rejected(self):
        # coboundaries leave the radical once the fundamental chain has a boundary
        with pytest.raises(ValueError, match="closed"):
            reduced_cup_invariants(SINGLE)

    @pytest.mark.parametrize("make", [oracles.cp2_walk,
                                      lambda: oracles.product_manifold("s1xs3"),
                                      lambda: oracles.product_manifold("s2xs2")],
                             ids=["cp2-walk", "s1xs3", "s2xs2"])
    def test_matches_cup_by_terms(self, make):
        t = make()
        gram = cup_gram(t)
        basis = gram.space.basis
        assert gram.matrix == tuple(tuple(oracles.cup_by_terms(t, gram.space, a, b)
                                          for b in basis) for a in basis)

    def test_one_action_value_call_per_entry(self, monkeypatch):
        calls = []
        original = hexagon.action_value

        def counted(left, right):
            calls.append(None)
            return original(left, right)
        monkeypatch.setattr(hexagon, "action_value", counted)
        g = cup_gram(builtin_manifold("cp2"))
        assert g.dim == 29
        assert len(calls) == 29 ** 2

    def test_coboundaries_in_radical(self):
        # closed manifold: each edge coboundary pairs to zero with every
        # cocycle, on either side of the cup product
        for t in CLOSED:
            gram = cup_gram(t)
            space = gram.space
            assert [[oracles.cup_by_terms(t, space, a, b) for b in space.basis]
                    for a in space.basis] == [list(row) for row in gram.matrix]
            edges, delta1 = dense_cocycle_rows(t, 1)
            _, delta2 = dense_cocycle_rows(t, 2)
            for e in range(len(edges)):
                b = [row[e] for row in delta1]
                assert all(sum(c * x for c, x in zip(row, b)) == 0 for row in delta2)
                for z in space.basis:
                    assert oracles.cup_by_terms(t, space, b, z) == 0
                    assert oracles.cup_by_terms(t, space, z, b) == 0

    def test_quotient_dimension(self):
        # dim H^2 = dim Z^2 - rank B^2, the rank over Q of the edge coboundaries
        for t in CLOSED:
            _, delta1 = dense_cocycle_rows(t, 1)
            inv = reduced_cup_invariants(t)
            assert inv.total_dim == solve_2cocycles(t).dim - frac_rank(delta1)
            assert inv.radical_dim == inv.total_dim - inv.rank


class TestCompareForms:
    def test_s4_both_trivial(self):
        report = compare_forms(boundary_delta5())
        assert report["manifold"] == "s4"
        assert report["hexagon"]["rank"] == 0
        assert report["cup"]["rank"] == 0
        assert list(report["equal_fields"]) == list(COMPARED_FIELDS)

    def test_cp2_report_well_formed(self):
        report = compare_forms(builtin_manifold("cp2"))
        assert set(report) == {"manifold", "hexagon", "cup", "equal_fields"}
        assert report["hexagon"]["rank"] == 1
        assert report["cup"]["rank"] == 1

    def test_invariant_under_pachner_move(self):
        t = boundary_delta5()
        moved = apply_move(t, find_moves(t, "1-5")[0])
        a, b = compare_forms(t), compare_forms(moved)
        for side in ("hexagon", "cup"):
            for field in COMPARED_FIELDS:
                assert a[side][field] == b[side][field]
        assert a["equal_fields"] == b["equal_fields"]

    def test_open_manifold_rejected(self):
        with pytest.raises(ValueError):
            compare_forms(SINGLE)
