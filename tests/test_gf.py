"""Finite field construction and arithmetic, checked exhaustively for q <= 16."""

from math import isqrt

import pytest
from hypothesis import given, settings, strategies as st

from hexaform.gf import (PRIME_BOUND, FieldError, frobenius_power, gf_nullspace, is_prime,
                         make_field)

SMALL_FIELDS = [(2, 1), (3, 1), (2, 2), (5, 1), (7, 1), (2, 3),
                (3, 2), (11, 1), (13, 1), (2, 4)]


def _trial_division(n: int) -> bool:
    return n >= 2 and all(n % d for d in range(2, isqrt(n) + 1))


def test_is_prime():
    assert [p for p in range(20) if is_prime(p)] == [2, 3, 5, 7, 11, 13, 17, 19]
    assert [n for n in range(10 ** 5) if is_prime(n)] == \
        [n for n in range(10 ** 5) if _trial_division(n)]


@pytest.mark.parametrize("n", [
    561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265, 321197185,  # Carmichael
    56052361, 118901521,  # Chernick: a^((n-1)/2) = 1 for every base a prime to n
    2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
    341550071728321, 3825123056546413051, 318665857834031151167461,
])  # then the smallest strong pseudoprimes to all of the first k prime bases, k <= 12
def test_is_prime_rejects_pseudoprimes(n):
    assert not is_prime(n)


def test_is_prime_decides_large_primes_up_to_its_bound():
    assert is_prime(2 ** 61 - 1) and is_prime(2 ** 31 - 1)
    assert not is_prime((2 ** 61 - 1) * (2 ** 19 - 1))
    with pytest.raises(FieldError, match=str(PRIME_BOUND)):
        is_prime(PRIME_BOUND)


def test_rejects_composite_characteristic():
    with pytest.raises(FieldError):
        make_field(4)
    with pytest.raises(FieldError):
        make_field(1)


class TestModulus:
    def test_prime_field(self):
        assert make_field(2, 1).modulus == (0, 1)  # the polynomial x

    def test_gf4(self):
        # only irreducible monic quadratic over GF(2): x^2 + x + 1
        assert make_field(2, 2).modulus == (1, 1, 1)

    def test_gf9(self):
        # x^2 + 1 has no root mod 3 and is lexicographically first
        assert make_field(3, 2).modulus == (1, 0, 1)

    def test_gf8_by_exhaustion(self):
        f = make_field(2, 3)
        # x^3 + x + 1 is the first irreducible cubic in (c2, c1, c0) order
        assert f.modulus == (1, 1, 0, 1)


@pytest.mark.parametrize("p,n", SMALL_FIELDS)
class TestFieldAxioms:
    def test_additive_group(self, p, n):
        f = make_field(p, n)
        elems = f.elements()
        for a in elems:
            assert a + f.zero == a
            assert a + (-a) == f.zero
            for b in elems:
                assert a + b == b + a

    def test_multiplicative_structure(self, p, n):
        f = make_field(p, n)
        elems = f.elements()
        for a in elems:
            assert a * f.one == a
            if a:
                assert a * (f.one / a) == f.one
            for b in elems:
                assert a * b == b * a

    def test_associativity_and_distributivity(self, p, n):
        if p ** n > 16:
            pytest.skip("triple loop reserved for q <= 16")
        f = make_field(p, n)
        elems = f.elements()
        for a in elems:
            for b in elems:
                for c in elems:
                    assert (a + b) + c == a + (b + c)
                    assert (a * b) * c == a * (b * c)
                    assert a * (b + c) == a * b + a * c


class TestFrobenius:
    def test_identity_at_m0(self):
        f = make_field(3, 2)
        for a in f.elements():
            assert frobenius_power(a, 0) == a

    def test_gf4_generator(self):
        f = make_field(2, 2)
        g = f.generator()
        assert frobenius_power(g, 1) == g * g
        assert g * g == g + f.one  # reduction by x^2 + x + 1

    def test_additive_on_gf8(self):
        f = make_field(2, 3)
        for a in f.elements():
            for b in f.elements():
                assert (frobenius_power(a + b, 1)
                        == frobenius_power(a, 1) + frobenius_power(b, 1))

    @pytest.mark.parametrize("p,n", [(2, 2), (3, 2), (2, 3), (2, 4)])
    def test_automorphism(self, p, n):
        f = make_field(p, n)
        for m in range(n + 1):
            for a in f.elements():
                assert frobenius_power(a, m) == a ** (p ** m)
                for b in f.elements():
                    assert (frobenius_power(a * b, m)
                            == frobenius_power(a, m) * frobenius_power(b, m))

    def test_prime_subfield_fixed(self):
        f = make_field(3, 2)
        for c in range(3):
            assert frobenius_power(f(c), 1) == f(c)

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            frobenius_power(make_field(2).one, -1)


class TestElem:
    def test_mixed_field_arithmetic_rejected(self):
        a = make_field(2).one
        b = make_field(3).one
        with pytest.raises(FieldError):
            a + b

    def test_int_coercion(self):
        f = make_field(5)
        assert f(3) + 4 == f(2)
        assert 2 * f(4) == f(3)
        assert 1 - f(3) == f(3)

    def test_division_by_zero(self):
        f = make_field(7)
        with pytest.raises(ZeroDivisionError):
            f.one / f.zero

    def test_codes_round_trip(self):
        f = make_field(3, 2)
        for code in range(f.q):
            assert f.encode(f.decode(code)) == code


class TestTables:
    @pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)])
    def test_tables_agree_with_code_arithmetic(self, p, n):
        f = make_field(p, n)
        add, mul, neg = f.add_table(), f.mul_table(), f.neg_table()
        for a in range(f.q):
            assert neg[a] == f.neg_code(a)
            for b in range(f.q):
                assert add[a][b] == f.add_codes(a, b)
                assert mul[a][b] == f.mul_codes(a, b)
        fr = f.frobenius_table(1)
        for a in range(f.q):
            assert fr[a] == f.frobenius_code(a, 1)

    def test_coeff_table(self):
        f = make_field(3, 2)
        for a in range(f.q):
            assert tuple(int(f.coeff_table(s)[a]) for s in range(2)) == f.decode(a)


class TestNullspace:
    def test_identity_gf2(self):
        f = make_field(2)
        rows = [[f(1), f(0)], [f(0), f(1)]]
        assert gf_nullspace(rows, f) == []

    def test_sum_row_gf2(self):
        f = make_field(2)
        basis = gf_nullspace([[f(1), f(1)]], f)
        assert basis == [[f(1), f(1)]]

    def test_random_rank4_gf3(self):
        f = make_field(3)
        rows = [[f(x) for x in row] for row in [
            [1, 2, 0, 1, 1, 0],
            [0, 1, 1, 0, 2, 1],
            [2, 0, 1, 1, 0, 2],
            [1, 1, 1, 1, 1, 1],
        ]]
        basis = gf_nullspace(rows, f)
        assert len(basis) == 2
        # exhaustive oracle over all 3^6 vectors
        count = 0
        for code in range(3 ** 6):
            v = []
            rest = code
            for _ in range(6):
                v.append(f(rest % 3))
                rest //= 3
            if all(sum((a * b for a, b in zip(row, v)), f.zero) == f.zero
                   for row in rows):
                count += 1
        assert count == 3 ** len(basis)

    def test_mixed_fields_rejected(self):
        with pytest.raises(FieldError):
            gf_nullspace([[make_field(2)(1), make_field(3)(1)]])

    @given(st.integers(0, 2 ** 12 - 1))
    @settings(max_examples=60, deadline=None)
    def test_basis_vectors_lie_in_kernel(self, seed):
        f = make_field(5)
        import random
        rng = random.Random(seed)
        rows = [[f(rng.randrange(5)) for _ in range(5)] for _ in range(3)]
        for v in gf_nullspace(rows, f):
            for row in rows:
                assert sum((a * b for a, b in zip(row, v)), f.zero) == f.zero
