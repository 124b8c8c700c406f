"""Acceptance suite: ten criteria, one test (and one pass/fail line) each.

Each test prints an `ACCEPTANCE n: PASS` line on success; under `pytest -v`
the per-test PASSED/FAILED line carries the same information.
"""

import json
import random
from fractions import Fraction

import pytest

from hexaform.cli import main as cli_main
from hexaform.cocycles import (FACE_VARIABLES, is_hexagon_cocycle,
                               reference_cubic, specialize, specialize_double)
from hexaform.gf import make_field
from hexaform.hexagon import R_MATRIX, gram_matrix, permitted_space
from hexaform.invariants import (DEFAULT_CAP, CapExceeded, FrobeniusSpec,
                                 distribution_equal, form_invariants,
                                 probability_distribution)
from hexaform.intersect import COMPARED_FIELDS, compare_forms, reduced_cup_invariants
from hexaform.manifolds import builtin_manifold
from hexaform.mpoly import MPoly
from hexaform.triangulation import (MOVE_KINDS, Triangulation, apply_move,
                                    boundary_delta5, find_moves)
from oracles import coboundary_terms, coboundary_terms_alt, combination, phi

SINGLE = Triangulation("one", ((0, 1, 2, 3, 4),))


def random_move(t, rng):
    pool = []
    for kind in MOVE_KINDS:
        pool.extend(find_moves(t, kind))
    return pool[rng.randrange(len(pool))]


def chained_sequence(t):
    """The 1-5, 2-4, 3-3 chain (the two smaller moves only become available
    after the 1-5 introduces a seventh vertex)."""
    out = []
    for kind in ("1-5", "2-4", "3-3"):
        d = find_moves(t, kind)[0]
        t = apply_move(t, d)
        out.append((kind, t))
    return out


def random_sequence(t, n, seed):
    rng = random.Random(seed)
    out = []
    for _ in range(n):
        d = random_move(t, rng)
        t = apply_move(t, d)
        out.append((d.kind, t))
    return out


def test_criterion_01_cocycle_identity():
    # Gram matrix of S on the full permitted basis of the 6-facet sphere
    # vanishes identically over Z and small fields
    rings = [None, make_field(2), make_field(3), make_field(2, 2), make_field(5)]
    for ring in rings:
        g = gram_matrix(boundary_delta5(), ring)
        assert g.dim == 9
        assert all(v == 0 for row in g.matrix for v in row)
    print("ACCEPTANCE 1: PASS - action Gram vanishes on the 6-facet sphere "
          "over Z, GF(2), GF(3), GF(4), GF(5)")


def test_criterion_02_two_line_equality():
    # both displayed forms of the pentachoron cocycle agree as polynomials
    # once y = R x and eta = R xi are substituted
    xs = [f"x{i}" for i in range(5)]
    ss = [f"s{i}" for i in range(5)]
    names = tuple(xs + ss)
    var = lambda n: MPoly.variable(names, n)
    x = [var(n) for n in xs]
    s = [var(n) for n in ss]
    y = [sum((R_MATRIX[r][c] * x[c] for c in range(5)), MPoly.zero(names))
         for r in range(5)]
    eta = [sum((R_MATRIX[r][c] * s[c] for c in range(5)), MPoly.zero(names))
           for r in range(5)]
    line1 = (x[0] + y[0]) * (s[4] + eta[4])
    line2 = (x[0] - 2 * x[1] + x[2] + x[3] - 2 * x[4]) * (s[1] - s[2] + s[4])
    assert line1 - line2 == MPoly.zero(names)
    print("ACCEPTANCE 2: PASS - the two displayed cocycle lines agree "
          "identically over Z")


def test_criterion_03_symmetry():
    # Gram symmetry on the sphere and on random-move descendants
    targets = [boundary_delta5()]
    for seed in (1, 2, 3):
        t = boundary_delta5()
        rng = random.Random(seed)
        for _ in range(5):
            t = apply_move(t, random_move(t, rng))
            targets.append(t)
    for t in targets:
        m = gram_matrix(t).matrix
        assert m == tuple(zip(*m))
    # per-pentachoron coboundary identity, 1000 random GF(7) colorings
    f = make_field(7)
    space = permitted_space(SINGLE, f)
    u = SINGLE.pentachora[0]
    rng = random.Random(99)
    for _ in range(1000):
        lat = combination(space, [f(rng.randrange(7)) for _ in range(space.dim)])
        grk = combination(space, [f(rng.randrange(7)) for _ in range(space.dim)])
        lhs = phi(u, grk, lat) - phi(u, lat, grk)
        s1 = sum(((-1) ** r * v for r, v in
                  enumerate(coboundary_terms(u, lat, grk))), f.zero)
        s2 = sum(((-1) ** r * v for r, v in
                  enumerate(coboundary_terms_alt(u, lat, grk))), f.zero)
        assert lhs == s1 == s2
    print("ACCEPTANCE 3: PASS - Gram symmetric on 16 closed triangulations; "
          "coboundary identity holds for 1000 GF(7) colorings (both forms)")


def test_criterion_04_form_invariance():
    t = boundary_delta5()
    base = form_invariants(gram_matrix(t).matrix)
    shifts = {"1-5": 4, "2-4": 1, "3-3": 0, "4-2": -1, "5-1": -4}
    dim = permitted_space(t).dim
    for kind, moved in chained_sequence(t):
        new_dim = permitted_space(moved).dim
        assert new_dim - dim == shifts[kind], kind
        inv = form_invariants(gram_matrix(moved).matrix)
        assert inv.equivalent(base)
        dim = new_dim
    dim = permitted_space(t).dim
    for kind, moved in random_sequence(t, 10, seed=2026):
        new_dim = permitted_space(moved).dim
        assert new_dim - dim == shifts[kind], kind
        inv = form_invariants(gram_matrix(moved).matrix)
        assert inv.equivalent(base)
        dim = new_dim
    print("ACCEPTANCE 4: PASS - form invariants stable over 1-5,2-4,3-3 and "
          "10 random moves; dimension shifts exactly +4/+1/0 (and inverses)")


def test_criterion_05_probability_invariance():
    t = boundary_delta5()
    sequences = [chained_sequence(t), random_sequence(t, 10, seed=2026)]
    compared = beyond = 0
    for n in (1, 2):
        for m in (0, 1):
            spec = FrobeniusSpec.single(2, n, m)
            field = spec.field()
            for model in ("field", "tensor"):
                base = probability_distribution(t, spec, model)
                assert base.total == field.q ** permitted_space(t, field).dim
                assert sum(base.probabilities().values(), Fraction(0)) == 1
                for seq in sequences:
                    for _, moved in seq:
                        total = field.q ** permitted_space(moved, field).dim
                        if total > DEFAULT_CAP:
                            # the default cap still refuses; an explicit one answers
                            with pytest.raises(CapExceeded):
                                probability_distribution(moved, spec, model)
                            beyond += 1
                        dist = probability_distribution(moved, spec, model, cap=total)
                        assert dist.total == total
                        assert sum(dist.probabilities().values(), Fraction(0)) == 1
                        equal, diffs = distribution_equal(base, dist)
                        assert equal, diffs
                        compared += 1
    assert compared == 8 * 13 and beyond > 0
    print(f"ACCEPTANCE 5: PASS - value distributions identical across moves "
          f"(p=2, n in {{1,2}}, m in {{0,1}}, both models; {compared} steps "
          f"compared, {beyond} of them past the default cap, which still raised "
          f"CapExceeded)")


def test_criterion_06_polynomials_verbatim():
    v = lambda n: MPoly.variable(FACE_VARIABLES, n, 2)
    quadratic = ((v("x_jklm") + v("x_ijlm") + v("x_ijkm"))
                 * (v("x_iklm") + v("x_ijlm") + v("x_ijkl")))
    cubic = ((v("x_jklm") + v("x_ijlm") + v("x_ijkm"))
             * (v("x_iklm") ** 2 + v("x_ijlm") ** 2 + v("x_ijkl") ** 2))
    sextic = ((v("x_jklm") ** 2 + v("x_ijlm") ** 2 + v("x_ijkm") ** 2)
              * (v("x_iklm") ** 4 + v("x_ijlm") ** 4 + v("x_ijkl") ** 4))
    assert specialize(2, 0).poly.terms == quadratic.terms
    assert specialize(2, 1).poly.terms == cubic.terms
    assert specialize_double(2, 1, 2).poly.terms == sextic.terms
    print("ACCEPTANCE 6: PASS - Frobenius specializations match the displayed "
          "quadratic, cubic and sextic term-for-term")


def test_criterion_07_reference_cubic():
    c = reference_cubic()
    assert is_hexagon_cocycle(c, make_field(2))
    # the only Frobenius specializations of total degree 3 in characteristic 2
    degree3 = [specialize_double(2, 0, 1), specialize_double(2, 1, 0)]
    assert all(c.poly != other.poly for other in degree3)
    print("ACCEPTANCE 7: PASS - the reference cubic is a hexagon cocycle over "
          "GF(2) and differs from every degree-3 Frobenius specialization")


def test_criterion_08_intersection_form_baseline():
    inv = reduced_cup_invariants(builtin_manifold("cp2"))
    assert inv.rank == 1
    assert abs(inv.determinant) == 1
    assert inv.signature in ((1, 0), (0, 1))
    print("ACCEPTANCE 8: PASS - reduced cup form of the 9-vertex CP^2 is "
          f"rank 1, det {inv.determinant}, signature {inv.signature}")


def test_criterion_09_comparison_probe():
    s4 = compare_forms(boundary_delta5())
    assert s4["hexagon"]["rank"] == 0 and s4["cup"]["rank"] == 0
    assert list(s4["equal_fields"]) == list(COMPARED_FIELDS)
    cp2 = compare_forms(builtin_manifold("cp2"))
    assert set(cp2) == {"manifold", "hexagon", "cup", "equal_fields"}
    assert isinstance(cp2["equal_fields"], list)
    # the cp2 outcome is a finding, recorded rather than asserted
    print("ACCEPTANCE 9: PASS - comparison reports well-formed; s4 trivial on "
          f"both sides; cp2 finding: hexagon={cp2['hexagon']} "
          f"cup={cp2['cup']} equal_fields={cp2['equal_fields']}")


def test_criterion_10_determinism(capsys, tmp_path):
    configs = [
        ["invariant", "--manifold", "cp2", "--mode", "form"],
        ["invariant", "--manifold", "s4", "--mode", "prob",
         "--p", "2", "--n", "2", "--m", "1", "--model", "tensor"],
        ["verify", "--manifold", "s4", "--moves", "1-5,2-4,3-3", "--random", "2",
         "--seed", "31"],
        ["compare", "--manifold", "cp2"],
        ["frobenius", "--p", "2", "--m1", "1", "--m2", "2", "--check"],
    ]
    for argv in configs:
        assert cli_main(argv) == 0
        first = capsys.readouterr().out
        assert cli_main(argv) == 0
        second = capsys.readouterr().out
        assert first == second, argv
        json.loads(first)  # well-formed JSON
    print("ACCEPTANCE 10: PASS - identical run configurations produce "
          "byte-identical JSON reports")
