"""Frobenius polynomial cocycles and the non-derivable cubic."""

import pytest

from hexaform.cocycles import (FACE_VARIABLES, GREEK_COEFFS, LATIN_COEFFS,
                               is_hexagon_cocycle, reference_cubic, specialize,
                               specialize_double, CocyclePolynomial)
from hexaform.gf import make_field
from hexaform.mpoly import MPoly, linear_combination
from oracles import ENUMERATION_BOUND, enumerated_cocycle_check


def v(name, p):
    return MPoly.variable(FACE_VARIABLES, name, p)


class TestSpecialize:
    def test_quadratic_p2_m0(self):
        # (x_jklm + x_ijlm + x_ijkm)(x_iklm + x_ijlm + x_ijkl)
        expect = ((v("x_jklm", 2) + v("x_ijlm", 2) + v("x_ijkm", 2))
                  * (v("x_iklm", 2) + v("x_ijlm", 2) + v("x_ijkl", 2)))
        got = specialize(2, 0)
        assert got.poly == expect
        assert got.degree == 2
        assert got.poly.is_homogeneous()

    def test_cubic_p2_m1(self):
        # (x_jklm + x_ijlm + x_ijkm)(x_iklm^2 + x_ijlm^2 + x_ijkl^2)
        expect = ((v("x_jklm", 2) + v("x_ijlm", 2) + v("x_ijkm", 2))
                  * (v("x_iklm", 2) ** 2 + v("x_ijlm", 2) ** 2 + v("x_ijkl", 2) ** 2))
        got = specialize(2, 1)
        assert got.poly == expect
        assert got.degree == 3

    def test_quadratic_p3_m0(self):
        # direct expansion with coefficients 1,-2,1,1,-2 and 1,-1,1 mod 3
        latin = linear_combination(FACE_VARIABLES, LATIN_COEFFS, 3)
        greek = linear_combination(FACE_VARIABLES, GREEK_COEFFS, 3)
        got = specialize(3, 0)
        assert got.poly == latin * greek
        assert got.degree == 2

    @pytest.mark.parametrize("p,m", [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (5, 0)])
    def test_degree_law(self, p, m):
        assert specialize(p, m).degree == p ** m + 1


class TestSpecializeDouble:
    def test_sextic_p2(self):
        # (x_jklm^2 + x_ijlm^2 + x_ijkm^2)(x_iklm^4 + x_ijlm^4 + x_ijkl^4)
        sq = lambda n: v(n, 2) ** 2
        qu = lambda n: v(n, 2) ** 4
        expect = ((sq("x_jklm") + sq("x_ijlm") + sq("x_ijkm"))
                  * (qu("x_iklm") + qu("x_ijlm") + qu("x_ijkl")))
        got = specialize_double(2, 1, 2)
        assert got.poly == expect
        assert got.degree == 6

    def test_single_is_double_with_m1_zero(self):
        for p, m in [(2, 0), (2, 1), (3, 1), (5, 0)]:
            assert specialize(p, m).poly == specialize_double(p, 0, m).poly

    def test_shared_frobenius_factors_out(self):
        for p, m in [(2, 1), (3, 1)]:
            assert (specialize_double(p, m, m).poly
                    == specialize(p, 0).poly.raise_exponents(p ** m))

    def test_mirrored_roles(self):
        # (2,1,0) squares the Latin factor instead of the Greek one
        latin = linear_combination(FACE_VARIABLES, LATIN_COEFFS, 2)
        greek = linear_combination(FACE_VARIABLES, GREEK_COEFFS, 2)
        assert specialize_double(2, 1, 0).poly == latin.raise_exponents(2) * greek
        assert specialize_double(2, 1, 0).poly != specialize_double(2, 0, 1).poly

    @pytest.mark.parametrize("p,m1,m2", [(2, 0, 1), (2, 1, 2), (3, 0, 1), (3, 1, 1)])
    def test_degree_law(self, p, m1, m2):
        assert specialize_double(p, m1, m2).degree == p ** m1 + p ** m2

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            specialize_double(2, -1, 0)


class TestReferenceCubic:
    def test_shape(self):
        c = reference_cubic()
        assert c.p == 2
        assert c.degree == 3
        assert len(c.poly.terms) == 5
        assert c.poly.is_homogeneous()

    def test_exact_terms(self):
        expect = (v("x_iklm", 2) * v("x_ijkm", 2) * v("x_ijkl", 2)
                  + v("x_iklm", 2) * v("x_ijlm", 2) * v("x_ijkl", 2)
                  + v("x_jklm", 2) * v("x_ijlm", 2) * v("x_ijkl", 2)
                  + v("x_jklm", 2) * v("x_ijlm", 2) * v("x_ijkm", 2)
                  + v("x_jklm", 2) * v("x_iklm", 2) * v("x_ijkm", 2))
        assert reference_cubic().poly == expect

    def test_not_a_frobenius_specialization(self):
        # only (0,1) and (1,0) give total degree 3 in characteristic 2
        c = reference_cubic().poly
        assert c != specialize(2, 1).poly
        assert c != specialize_double(2, 0, 1).poly
        assert c != specialize_double(2, 1, 0).poly

    def test_symmetry_under_outer_exchange(self):
        # recorded outcome: swapping jklm<->ijkl and iklm<->ijkm fixes the cubic
        c = reference_cubic().poly
        swapped = c.rename({"x_jklm": "x_ijkl", "x_ijkl": "x_jklm",
                            "x_iklm": "x_ijkm", "x_ijkm": "x_iklm"},
                           FACE_VARIABLES)
        assert swapped == c


class TestIsHexagonCocycle:
    def test_quadratic_gf2(self):
        assert is_hexagon_cocycle(specialize(2, 0), make_field(2))

    def test_reference_cubic_gf2(self):
        assert is_hexagon_cocycle(reference_cubic(), make_field(2))

    def test_zero_polynomial(self):
        zero = CocyclePolynomial(2, MPoly.zero(FACE_VARIABLES, 2))
        assert is_hexagon_cocycle(zero, make_field(2))

    @pytest.mark.parametrize("p,n,m", [(2, 1, 1), (2, 2, 0), (2, 2, 1), (3, 1, 0), (3, 1, 1)])
    def test_specializations_pass(self, p, n, m):
        assert is_hexagon_cocycle(specialize(p, m), make_field(p, n))

    def test_double_specializations_pass(self):
        f = make_field(2, 2)
        assert is_hexagon_cocycle(specialize_double(2, 1, 2), f)

    def test_negative_control(self):
        # a single monomial is not a cocycle
        mono = CocyclePolynomial(2, v("x_jklm", 2) * v("x_ijkl", 2))
        assert not is_hexagon_cocycle(mono, make_field(2))

    def test_characteristic_mismatch(self):
        with pytest.raises(ValueError):
            is_hexagon_cocycle(specialize(2, 0), make_field(3))


SPECIALIZATIONS = [(p, m1, m2) for p in (2, 3, 5) for m1 in range(3) for m2 in range(3)]


def _perturbed(c):
    """The polynomial plus the monomial x_jklm * x_ijkl, which is no cocycle."""
    return CocyclePolynomial(c.p, c.poly + v("x_jklm", c.p) * v("x_ijkl", c.p))


class TestSymbolicAgainstEnumeration:
    @pytest.mark.parametrize("p,m1,m2", SPECIALIZATIONS)
    def test_prime_fields(self, p, m1, m2):
        c, f = specialize_double(p, m1, m2), make_field(p)
        assert is_hexagon_cocycle(c, f) is enumerated_cocycle_check(c, f) is True
        bad = _perturbed(c)
        assert is_hexagon_cocycle(bad, f) is enumerated_cocycle_check(bad, f) is False

    @pytest.mark.parametrize("m1,m2", [(m1, m2) for m1 in range(3) for m2 in range(3)])
    def test_gf4(self, m1, m2):
        c, f = specialize_double(2, m1, m2), make_field(2, 2)
        assert is_hexagon_cocycle(c, f) is enumerated_cocycle_check(c, f) is True
        bad = _perturbed(c)
        assert is_hexagon_cocycle(bad, f) is enumerated_cocycle_check(bad, f) is False

    @pytest.mark.parametrize("n", [1, 2])
    def test_reference_cubic(self, n):
        f = make_field(2, n)
        c = reference_cubic()
        assert is_hexagon_cocycle(c, f) is enumerated_cocycle_check(c, f) is True
        bad = _perturbed(c)
        assert is_hexagon_cocycle(bad, f) is enumerated_cocycle_check(bad, f) is False


    def test_enumeration_refuses_a_large_field_at_once(self):
        # GF(9) would need arrays of 9^9 entries; GF(5)'s 5^9 is the largest run
        assert 5 ** 9 <= ENUMERATION_BOUND < 7 ** 9
        with pytest.raises(ValueError, match=r"needs 9\^9 colorings"):
            enumerated_cocycle_check(specialize_double(3, 0, 1), make_field(3, 2))


class TestDigitPowers:
    """Face exponents with several nonzero base-p digits, some at j >= n.
    x^e y^f minus its exponent-reduced form is the zero function, so its
    facet sum vanishes only if the check reduces both powers alike."""

    # the oracle holds q^dim = q^9 values, so q stays small
    @pytest.mark.parametrize("p,n,e1,e2", [
        (2, 1, 6, 3), (2, 2, 5, 7), (2, 2, 13, 11), (3, 1, 14, 5), (5, 1, 31, 7),
    ])
    def test_against_enumeration(self, p, n, e1, e2):
        f = make_field(p, n)
        mono = v("x_jklm", p) ** e1 * v("x_ijkl", p) ** e2
        c = CocyclePolynomial(p, mono - mono.reduce_exponents(f.q))
        assert is_hexagon_cocycle(c, f) is enumerated_cocycle_check(c, f) is True
        bad = CocyclePolynomial(p, mono)
        assert is_hexagon_cocycle(bad, f) is enumerated_cocycle_check(bad, f) is False

    # m = 1100 is past the default recursion limit of a squaring recursion
    @pytest.mark.parametrize("p,n,m", [(2, 1, 1100), (2, 2, 1101), (3, 2, 1001), (101, 1, 3)])
    def test_large_frobenius_exponents(self, p, n, m):
        f = make_field(p, n)
        assert is_hexagon_cocycle(specialize(p, m), f)
        assert not is_hexagon_cocycle(_perturbed(specialize(p, m)), f)
        mono = v("x_iklm", p) ** (p ** m + p ** (m // 2) + 1)
        assert is_hexagon_cocycle(CocyclePolynomial(p, mono - mono.reduce_exponents(f.q)), f)


def test_reduce_exponents():
    x, y = v("x_jklm", 3), v("x_iklm", 3)
    # over GF(9): x^9 = x, x^10 = x^2, x^17 = x^9 = x; x^0 stays 1
    poly = x ** 9 * y ** 17 + x ** 10 + 2
    assert poly.reduce_exponents(9) == x * y + x ** 2 + 2
    assert (x ** 8).reduce_exponents(9) == x ** 8


def test_printed_form_uses_face_variable_names():
    text = str(specialize(2, 0))
    assert "x_jklm" in text and "x_ijkl" in text
    assert "+" in text
