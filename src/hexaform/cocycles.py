"""Polynomial cocycles on a generic pentachoron over prime fields.

Linking the Greek coloring half to the Latin one through Frobenius powers
turns the bilinear pentachoron cocycle into a polynomial in the five
face variables; this module generates those polynomials, ships the known
cubic that no such specialization produces, and checks the hexagon
cocycle property exactly, by reducing the facet sum as a polynomial.
"""

from __future__ import annotations

from dataclasses import dataclass

from .gf import GF, FieldError, is_prime, make_field
from .hexagon import permitted_space
from .mpoly import MPoly, linear_combination
from .triangulation import boundary_delta5, faces

# the five face variables of a pentachoron ijklm, inverse lexicographic order
FACE_VARIABLES = ("x_jklm", "x_iklm", "x_ijlm", "x_ijkm", "x_ijkl")

# coefficients of the two linear factors of the expanded cocycle
LATIN_COEFFS = {"x_jklm": 1, "x_iklm": -2, "x_ijlm": 1, "x_ijkm": 1, "x_ijkl": -2}
GREEK_COEFFS = {"x_iklm": 1, "x_ijlm": -1, "x_ijkl": 1}


@dataclass(frozen=True)
class CocyclePolynomial:
    p: int
    poly: MPoly

    @property
    def degree(self) -> int:
        return self.poly.degree

    def __str__(self):
        return str(self.poly)


def specialize(p: int, m: int) -> CocyclePolynomial:
    """Polynomial obtained by setting the Greek half to the p^m-th Frobenius
    power of the Latin one; homogeneous of degree p^m + 1."""
    return specialize_double(p, 0, m)


def specialize_double(p: int, m1: int, m2: int) -> CocyclePolynomial:
    """Both halves are Frobenius powers of a common coloring; degree
    p^m1 + p^m2.  Raising a linear form into a p-power distributes over the
    sum and fixes GF(p) coefficients, so each factor just gets its
    exponents scaled."""
    if not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if m1 < 0 or m2 < 0:
        raise ValueError("exponents must be >= 0")
    latin = linear_combination(FACE_VARIABLES, LATIN_COEFFS, p)
    greek = linear_combination(FACE_VARIABLES, GREEK_COEFFS, p)
    poly = latin.raise_exponents(p ** m1) * greek.raise_exponents(p ** m2)
    return CocyclePolynomial(p, poly)


def reference_cubic() -> CocyclePolynomial:
    """The known cubic hexagon cocycle in characteristic 2 that no single or
    double Frobenius specialization reproduces."""
    v = FACE_VARIABLES
    monomials = [
        ("x_iklm", "x_ijkm", "x_ijkl"),
        ("x_iklm", "x_ijlm", "x_ijkl"),
        ("x_jklm", "x_ijlm", "x_ijkl"),
        ("x_jklm", "x_ijlm", "x_ijkm"),
        ("x_jklm", "x_iklm", "x_ijkm"),
    ]
    poly = MPoly.zero(v, 2)
    for mono in monomials:
        term = MPoly.constant(v, 1, 2)
        for name in mono:
            term = term * MPoly.variable(v, name, 2)
        poly = poly + term
    return CocyclePolynomial(2, poly)


def is_hexagon_cocycle(c: CocyclePolynomial, field: GF) -> bool:
    """Decide whether the alternating facet sum of the polynomial vanishes
    on every permitted coloring of the boundary of the 5-simplex.

    Each face variable becomes its linear form in the d coordinates of the
    permitted space over GF(q); the signed facet polynomials are summed
    with every exponent reduced by x^q = x after each product.  A
    polynomial function on GF(q)^d vanishes exactly when that reduction is
    the zero polynomial, so the answer is exact without evaluating a
    single coloring.

    The forms have GF(p) coefficients, so Frobenius is additive on them:
    (sum a_i x_i)^(p^j) = sum a_i x_i^(p^j), and x^(p^j) = x^(p^(j mod n))
    on GF(p^n).  A power e of a form is therefore the product, over the
    base-p digits of e, of those twisted forms raised to the digit, and
    the check's cost follows the digits of the exponents, not their size.
    """
    if field.p != c.p:
        raise ValueError("field characteristic must match the polynomial")
    s4 = boundary_delta5()
    # the GF(p) basis is the GF(q) one
    space = permitted_space(s4, make_field(field.p))
    d = space.dim
    p, n, q = field.p, field.n, field.q
    coords = tuple(f"a{i}" for i in range(d))
    unit = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    # the basis entries are residues mod p: GF(p) coefficients
    linear = {tet: MPoly(coords, p, {unit[i]: vec[k] for i, vec in enumerate(space.basis)})
              for k, tet in enumerate(space.tets)}
    powers: dict = {}

    def power(tet, e: int) -> MPoly:
        if (tet, e) not in powers:
            out, j, rest = None, 0, e
            while rest:
                rest, digit = divmod(rest, p)
                if digit:
                    twisted = linear[tet].raise_exponents(p ** (j % n)) if j % n else linear[tet]
                    for _ in range(digit):
                        out = twisted if out is None else (out * twisted).reduce_exponents(q)
                j += 1
            powers[tet, e] = out
        return powers[tet, e]

    acc = MPoly.zero(coords, p)
    for sign, u in zip(s4.signs, s4.pentachora):
        face_of = dict(zip(FACE_VARIABLES, faces(u)))
        for exps, coeff in c.poly.terms.items():
            term = MPoly.constant(coords, sign * coeff, p)
            for name, e in zip(c.poly.variables, exps):
                if e:
                    term = (term * power(face_of[name], e)).reduce_exponents(q)
            acc = acc + term
    return not acc
