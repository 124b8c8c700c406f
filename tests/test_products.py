"""Staircase products of spheres and the torus: the first even forms, and Z
kernels whose entries stay small."""

import time

import pytest

from hexaform.hexagon import permitted_space
from hexaform.intersect import COMPARED_FIELDS, compare_forms, solve_2cocycles
from hexaform.manifolds import builtin_manifold
from oracles import cp2_walk, product_manifold

H = {"rank": 2, "signature": [1, 1], "det": "-1", "parity": "even", "factors": [1, 1]}
ZERO = {"rank": 0, "signature": [0, 0], "det": "1", "parity": "even", "factors": []}

# (make, b1, b2) for five closed manifolds
CLOSED = [
    (lambda: builtin_manifold("s4"), 0, 0),
    (lambda: builtin_manifold("cp2"), 0, 1),
    (lambda: product_manifold("s1xs3"), 1, 0),
    (lambda: product_manifold("s2xs2"), 0, 2),
    (lambda: product_manifold("t2xs2"), 2, 2),
]
CLOSED_IDS = ["s4", "cp2", "s1xs3", "s2xs2", "t2xs2"]


@pytest.mark.parametrize("name, pentachora, vertices, euler", [
    ("s1xs3", 60, 15, 0), ("s2xs2", 96, 16, 4), ("t2xs2", 336, 28, 0)])
def test_products_are_closed_and_oriented(name, pentachora, vertices, euler):
    t = product_manifold(name)
    assert (len(t.pentachora), len(t.vertex_ids)) == (pentachora, vertices)
    assert t.is_closed() and t.signs is not None
    assert t.euler_characteristic() == euler


def test_t2xs2_z_kernel_is_fast():
    t = product_manifold("t2xs2")
    start = time.perf_counter()
    space = permitted_space(t)
    assert time.perf_counter() - start < 2
    assert space.dim == 226


@pytest.mark.parametrize("make", [lambda: builtin_manifold("s4"),
                                  lambda: builtin_manifold("cp2"), cp2_walk]
                         + [lambda n=n: product_manifold(n) for n in ("s1xs3", "s2xs2", "t2xs2")],
                         ids=["s4", "cp2", "cp2-walk", "s1xs3", "s2xs2", "t2xs2"])
def test_z_kernel_entries_have_at_most_12_bits(make):
    t = make()
    for basis in (permitted_space(t).basis, solve_2cocycles(t).basis):
        assert max(abs(x).bit_length() for vec in basis for x in vec) <= 12


@pytest.mark.parametrize("name", ["s2xs2", "t2xs2"])
def test_both_forms_are_hyperbolic(name):
    # H = [[0, 1], [1, 0]]: the first even forms among the test inputs
    report = compare_forms(product_manifold(name))
    for side in ("hexagon", "cup"):
        assert {f: report[side][f] for f in H} == H
    assert report["equal_fields"] == list(COMPARED_FIELDS)


def test_both_forms_vanish_on_s1xs3():
    report = compare_forms(product_manifold("s1xs3"))
    for side in ("hexagon", "cup"):
        assert {f: report[side][f] for f in ZERO} == ZERO


@pytest.mark.parametrize("make, b1, b2", CLOSED, ids=CLOSED_IDS)
def test_permitted_dimension_fits_the_observed_formula(make, b1, b2):
    # an observation on these five closed manifolds, not a theorem
    t = make()
    p, v = len(t.pentachora), len(t.vertex_ids)
    assert permitted_space(t).dim == p // 2 + 2 * v - 6 - 2 * b2 + 6 * b1
