"""Exact integer linear algebra tests: SNF, kernels, inertia, determinants."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hexaform import linalg


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


small_matrix = st.integers(1, 4).flatmap(
    lambda m: st.integers(1, 4).flatmap(
        lambda n: st.lists(
            st.lists(st.integers(-9, 9), min_size=n, max_size=n),
            min_size=m, max_size=m)))


class TestSmithNormalForm:
    def test_identity(self):
        snf = linalg.smith_normal_form(linalg.identity(3))
        assert snf.d == linalg.identity(3)
        assert snf.u == linalg.identity(3)
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
        assert linalg.mat_mul(linalg.mat_mul(snf.u, a), snf.v) == snf.d
        assert abs(linalg.det(snf.u)) == 1
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


class TestKernel:
    def test_difference_row(self):
        assert linalg.integer_kernel_basis([[1, -1]]) == [[1, 1]]

    def test_injective(self):
        assert linalg.integer_kernel_basis(linalg.identity(3)) == []

    def test_saturation_2_4(self):
        # the primitive solution, not (4, -2)
        assert linalg.integer_kernel_basis([[2, 4]]) == [[2, -1]]

    @given(small_matrix)
    @settings(max_examples=100, deadline=None)
    def test_kernel_properties(self, a):
        basis = linalg.integer_kernel_basis(a)
        n = len(a[0])
        for col in basis:
            assert linalg.mat_vec(a, col) == [0] * len(a)
        assert len(basis) == n - frac_rank(a)
        if basis:
            mat = [[basis[j][i] for j in range(len(basis))] for i in range(n)]
            snf = linalg.smith_normal_form(mat)
            assert all(x == 1 for x in snf.diagonal[:len(basis)])


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
        assert linalg.mat_mul(a, inv) == linalg.identity(2)

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


class TestHermite:
    def test_canonical(self):
        # both generate the same lattice; one canonical answer
        a = linalg.hermite_columns([[2, 1], [0, 3]])
        b = linalg.hermite_columns([[2, 1], [2, 4]])
        assert a == b
