"""Exact integer linear algebra tests: SNF, kernels, inertia, determinants."""

from fractions import Fraction
from itertools import combinations
from math import gcd, prod

import pytest
from hypothesis import given, settings, strategies as st

from hexaform import linalg
from hexaform.invariants import _legendre
from hexaform.hexagon import build_constraints
from hexaform.intersect import _cocycle_rows
from hexaform.manifolds import builtin_manifold
from oracles import (cp2_walk, dense_kernel, fraction_inertia, gf_diagonal, mat_mul,
                     mat_vec, per_column_sparse_kernel, product_manifold, rank_mod,
                     same_saturated_lattice)


def frac_rank(a):
    """Independent rank oracle: plain Gaussian elimination over Q."""
    m = [[Fraction(x) for x in row] for row in a]
    rank = 0
    rows, cols = len(m), len(m[0]) if m else 0
    for c in range(cols):
        piv = next((i for i in range(rank, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(rows):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def sparse_rows(a):
    return [{j: x for j, x in enumerate(row) if x} for row in a]


def check_row_wise_lift(rows, n, p=None):
    """`sparse_kernel` lifts all kernel columns at once; the per-column lift
    it replaced must give exactly the same rank and columns.  Returns the
    kernel."""
    rank, cols = linalg.sparse_kernel(rows, n, p)
    assert (rank, cols) == per_column_sparse_kernel(rows, n, p)
    return rank, cols


small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


class TestSmithNormalForm:
    def test_identity(self):
        snf = linalg.smith_normal_form(linalg.identity(3))
        assert snf.d == linalg.identity(3)
        assert snf.v == linalg.identity(3)

    def test_diag_4_6(self):
        # gcd 2 first, then 24/2 = 12 to keep the product of factors
        snf = linalg.smith_normal_form([[4, 0], [0, 6]])
        assert snf.diagonal == [2, 12]

    def test_zero_matrix(self):
        snf = linalg.smith_normal_form([[0, 0], [0, 0]])
        assert snf.d == [[0, 0], [0, 0]]

    @given(small_matrix)
    @settings(max_examples=150, deadline=None)
    def test_decomposition_properties(self, a):
        snf = linalg.smith_normal_form(a)
        assert abs(linalg.det(snf.v)) == 1
        diag = snf.diagonal
        for i, j in zip(range(len(diag)), range(1, len(diag))):
            assert diag[i] >= 0
            if diag[i] and diag[j]:
                assert diag[j] % diag[i] == 0
            if diag[i] == 0:
                assert diag[j] == 0
        # off-diagonal entries all zero
        for i, row in enumerate(snf.d):
            for j, x in enumerate(row):
                if i != j:
                    assert x == 0
        assert snf.rank == frac_rank(a)
        # A V == U^-1 D for some unimodular U: the columns of A V past the
        # rank vanish, d_j divides column j, and d_1 ... d_k is the gcd of
        # all k x k minors of A
        av = mat_mul(a, snf.v)
        for j, col in enumerate(zip(*av)):
            if j >= snf.rank:
                assert not any(col)
            else:
                assert all(x % diag[j] == 0 for x in col)
        m, n = len(a), len(a[0])
        for k in range(1, len(diag) + 1):
            minors = [linalg.det([[a[i][j] for j in cols] for i in rows])
                      for rows in combinations(range(m), k)
                      for cols in combinations(range(n), k)]
            assert prod(diag[:k]) == gcd(*minors)


class TestKernel:
    """Z kernels off the unit-pivot route, against lattice properties."""

    def test_difference_row(self):
        assert linalg.sparse_kernel(sparse_rows([[1, -1]]), 2) == (1, [[1, 1]])

    def test_injective(self):
        assert linalg.sparse_kernel(sparse_rows(linalg.identity(3)), 3) == (3, [])

    def test_saturation_2_4(self):
        # the primitive solution, not (4, -2)
        _, cols = linalg.sparse_kernel(sparse_rows([[2, 4]]), 2)
        assert same_saturated_lattice(cols, [[2, -1]])

    @given(small_matrix)
    @settings(max_examples=100, deadline=None)
    def test_kernel_properties(self, a):
        n = len(a[0])
        rank, basis = linalg.sparse_kernel(sparse_rows(a), n)
        for col in basis:
            assert mat_vec(a, col) == [0] * len(a)
        assert rank == frac_rank(a)
        assert len(basis) == n - rank
        if basis:
            mat = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
            snf = linalg.smith_normal_form(mat)
            assert all(x == 1 for x in snf.diagonal[:len(basis)])


# rows over {0, +-1, +-2, +-3}, the first k of them without a unit entry, so
# that the unit-pivot elimination leaves a residual for the Smith step
@st.composite
def mixed_matrix(draw):
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    k = draw(st.integers(0, m))
    any_entry = st.sampled_from([0, 1, -1, 2, -2, 3, -3])
    unit_free = st.sampled_from([0, 2, -2, 3, -3])
    return [draw(st.lists(unit_free if i < k else any_entry, min_size=n, max_size=n))
            for i in range(m)]


class TestSparseKernel:
    """The unit-pivot route against one dense Smith decomposition."""

    def test_residual_only(self):
        rank, cols = linalg.sparse_kernel([{0: 2, 1: 4}], 2)
        assert rank == 1 and linalg.hermite_columns(cols) == [[2, -1]]
        rank, cols = linalg.sparse_kernel([{0: 2, 1: 4}], 2, p=2)
        assert rank == 0 and len(cols) == 2

    def test_unit_pivots_then_residual(self):
        # x0 = -x1 - x2 clears the first row; 2 x1 + 4 x2 is left for the SNF
        rows = [{0: 1, 1: 1, 2: 1}, {0: 1, 1: 3, 2: 5}]
        rank, cols = linalg.sparse_kernel(rows, 3)
        assert rank == 2 and linalg.hermite_columns(cols) == [[1, -2, 1]]

    def test_empty_and_zero_rows(self):
        assert linalg.sparse_kernel([], 2) == (0, [[1, 0], [0, 1]])
        assert linalg.sparse_kernel([{}, {1: -1}], 2) == (1, [[1, 0]])

    @given(mixed_matrix())
    @settings(max_examples=200, deadline=None)
    def test_matches_dense_route_over_z(self, a):
        rank, cols = check_row_wise_lift(sparse_rows(a), len(a[0]))
        assert rank == linalg.smith_normal_form(a).rank
        for col in cols:
            assert mat_vec(a, col) == [0] * len(a)
        assert same_saturated_lattice(cols, dense_kernel(a))

    @given(mixed_matrix(), st.sampled_from([2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_gf_kernel(self, a, p):
        n = len(a[0])
        rank, cols = check_row_wise_lift(sparse_rows(a), n, p)
        assert rank == rank_mod(a, p) == n - len(dense_kernel(a, p))
        assert len(cols) == n - rank
        for col in cols:
            assert all(x % p == 0 for x in mat_vec(a, col))
        assert rank_mod(cols, p) == len(cols)


# rows {column: entry} up to 40 x 40 at about 15% density, mostly units, so
# that pivot expressions name columns pivoted on later and the lift chains
@st.composite
def sparse_matrix(draw):
    m, n = draw(st.integers(1, 40)), draw(st.integers(1, 40))
    entry = st.sampled_from([1, -1, 1, -1, 2, -2, 3])
    row = st.dictionaries(st.integers(0, n - 1), entry, max_size=max(1, round(0.3 * n)))
    return draw(st.lists(row, min_size=m, max_size=m)), n


MANIFOLDS = {
    "s4": lambda: builtin_manifold("s4"),
    "cp2": lambda: builtin_manifold("cp2"),
    "cp2-walk": cp2_walk,
    "s1xs3": lambda: product_manifold("s1xs3"),
    "s2xs2": lambda: product_manifold("s2xs2"),
    "t2xs2": lambda: product_manifold("t2xs2"),
}


class TestRowWiseLift:
    """Exact (rank, columns) against the per-column lift on sparse matrices
    whose pivots chain and on the package's own constraint systems."""

    @given(sparse_matrix(), st.sampled_from([None, 2, 3, 5]))
    @settings(max_examples=200, deadline=None)
    def test_sparse_matrices(self, a, p):
        check_row_wise_lift(*a, p)

    @pytest.mark.parametrize("name", MANIFOLDS)
    def test_constraint_systems(self, name):
        system = build_constraints(MANIFOLDS[name]())
        for p in (None, 2, 3):
            check_row_wise_lift(list(system.sparse_rows), system.num_variables, p)

    @pytest.mark.parametrize("name", MANIFOLDS)
    @pytest.mark.parametrize("k", [1, 2])
    def test_coboundaries(self, name, k):
        cells, rows = _cocycle_rows(MANIFOLDS[name](), k)
        check_row_wise_lift(rows, len(cells))


class TestDeterminant:
    def test_examples(self):
        assert linalg.det([[1]]) == 1
        assert linalg.det([[2, 1], [1, 2]]) == 3
        assert linalg.det([[0, 1], [1, 0]]) == -1

    @given(st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_against_cofactor_expansion(self, a):
        def cofactor(m):
            if len(m) == 1:
                return m[0][0]
            return sum((-1) ** j * m[0][j]
                       * cofactor([row[:j] + row[j + 1:] for row in m[1:]])
                       for j in range(len(m)))
        assert linalg.det(a) == cofactor(a)


class TestUnimodularInverse:
    def test_round_trip(self):
        a = [[1, 2], [1, 3]]
        inv = linalg.unimodular_inverse(a)
        assert mat_mul(a, inv) == linalg.identity(2)

    def test_rejects_non_unimodular(self):
        with pytest.raises(ValueError):
            linalg.unimodular_inverse([[2, 0], [0, 1]])


class TestInertia:
    def test_diag(self):
        assert linalg.inertia([[1, 0], [0, -1]]) == (1, 1)

    def test_hyperbolic(self):
        # indefinite even form: same signature as diag(1, -1)
        assert linalg.inertia([[0, 1], [1, 0]]) == (1, 1)

    def test_definite(self):
        assert linalg.inertia([[2, 1], [1, 2]]) == (2, 0)
        assert linalg.inertia([[-3]]) == (0, 1)

    def test_degenerate(self):
        assert linalg.inertia([[0, 0], [0, 0]]) == (0, 0)
        assert linalg.inertia([[1, 1], [1, 1]]) == (1, 0)


@st.composite
def symmetric_forms(draw):
    """Symmetric matrices of three kinds: sparse random ones; A (+) B with
    B's diagonal zero, so that the pair step runs after A's pivots; and
    low-rank A^T D A, whose radical need not be spanned by unit vectors."""
    kind = draw(st.sampled_from(["random", "zero-diagonal", "low-rank"]))
    entry = st.sampled_from([0, 0, 0, 1, -1, 2, -2, 3, -5])
    if kind == "low-rank":
        n = draw(st.integers(2, 6))
        k = draw(st.integers(1, n - 1))
        a = [draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n)) for _ in range(k)]
        d = draw(st.lists(st.integers(-3, 3), min_size=k, max_size=k))
        return [[sum(a[r][i] * d[r] * a[r][j] for r in range(k)) for j in range(n)]
                for i in range(n)]
    sizes = draw(st.tuples(st.integers(0, 3), st.integers(1, 4)) if kind == "zero-diagonal"
                 else st.tuples(st.integers(1, 6), st.just(0)))
    n = sum(sizes)
    g = [[0] * n for _ in range(n)]
    for block, start in ((0, 0), (1, sizes[0])):
        for i in range(start, start + sizes[block]):
            for j in range(i, start + sizes[block]):
                if i != j or block == 0:
                    g[i][j] = g[j][i] = draw(entry)
    return g


class TestCongruentMinors:
    """The fraction-free congruence against rational elimination over Z and
    plain Gaussian congruence mod p."""

    def test_pair_step(self):
        # e_0 <- e_0 + e_1 turns the hyperbolic plane into [[2, 1], [1, 0]]
        assert linalg.congruent_minors([[0, 1], [1, 0]]) == [2, -1]
        assert linalg.congruent_minors([[0, 1], [1, 0]], 5) == [2, 4]

    def test_degenerate(self):
        assert linalg.congruent_minors([[0, 0], [0, 0]]) == []
        assert linalg.congruent_minors([[3, 0], [0, 5]], 3) == [2]

    @given(symmetric_forms())
    @settings(max_examples=300, deadline=None)
    def test_signature_over_z(self, g):
        minors = linalg.congruent_minors(g)
        assert linalg.inertia(g) == fraction_inertia(g)
        assert len(minors) == frac_rank(g)
        if len(minors) == len(g):
            # the congruence is unimodular: D_n is det G
            assert minors[-1] == linalg.det(g)

    @given(symmetric_forms(), st.sampled_from([3, 5, 7]))
    @settings(max_examples=300, deadline=None)
    def test_rank_and_discriminant_mod_p(self, g, p):
        minors = linalg.congruent_minors(g, p)
        diag = gf_diagonal(g, p)
        assert len(minors) == len(diag) == rank_mod(g, p)
        assert all(0 < d < p for d in minors)
        if diag:
            assert _legendre(minors[-1], p) == _legendre(prod(diag), p)


class TestHermite:
    def test_canonical(self):
        # both generate the same lattice; one canonical answer
        a = linalg.hermite_columns([[2, 1], [0, 3]])
        b = linalg.hermite_columns([[2, 1], [2, 4]])
        assert a == b
