"""Manifold invariants of the action: congruence data of the integral Gram
matrix, and exact value-probability distributions over finite fields with
Frobenius-linked colorings.

Probabilities are exact rationals over the whole permitted coloring space,
computed in closed form from the Gram matrix M of the action mod p on the
GF(p) basis of the permitted space, so that S(a) = phi1(a)^T M phi2(a) for
the coloring with basis coordinates a: each GF(p)-coordinate of the value
is a quadratic form over GF(p), whose value counts follow from its rank
and discriminant (p odd) or its Arf invariant (p = 2).  No coloring is
enumerated; a space past the configured cap is still refused, as it was
when the counts came from enumeration.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod

from . import linalg
from .gf import GF, FieldError, _decode, make_field
from .hexagon import _gram, permitted_space
from .triangulation import Triangulation

DEFAULT_CAP = 10_000_000
# `_value_counts` holds p^k sums, k = n (field model) or n^2 (tensor), and its
# inverse transform takes about k * p^(k+2) steps whatever the cap: p^(k+2) past
# this is refused (cp2 over GF(211), 211^3 ~ 9.4 * 10^6, answers in 0.3 s)
TRANSFORM_BOUND = 10_000_000


class CapExceeded(RuntimeError):
    pass


def _power_exceeds(p: int, e: int, bound: int) -> bool:
    """p^e > bound for p >= 2; as p^e >= 2^(e * (p.bit_length() - 1)), no
    power is computed more than twice as long as the bound."""
    return e * (p.bit_length() - 1) > bound.bit_length() or p ** e > bound


def enumeration_cap(explicit: int | None = None) -> int:
    """The cap on enumerated colorings: `explicit` if given, else
    HEXAFORM_CAP, else DEFAULT_CAP.  A negative cap is a ValueError that
    names the value, not a cap that refuses everything."""
    if explicit is not None:
        cap, source = explicit, "enumeration cap"
    else:
        env = os.environ.get("HEXAFORM_CAP")
        if not env:
            return DEFAULT_CAP
        cap, source = int(env), "HEXAFORM_CAP"
    if cap < 0:
        raise ValueError(f"{source} must be >= 0, got {cap}")
    return cap


# --- congruence invariants of the integral form ----------------------------


@dataclass(frozen=True)
class FormInvariants:
    total_dim: int
    radical_dim: int
    rank: int
    signature: tuple[int, int]   # (p_plus, p_minus)
    determinant: int
    parity: str                  # "even" | "odd"
    invariant_factors: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "dim": self.total_dim,
            "radical": self.radical_dim,
            "rank": self.rank,
            "signature": list(self.signature),
            "det": str(self.determinant),
            "parity": self.parity,
            "factors": list(self.invariant_factors),
        }

    def equivalent(self, other: "FormInvariants") -> bool:
        """Equality modulo zero direct summands: total and radical dimension
        may differ, everything about the nondegenerate part must agree."""
        return (self.rank == other.rank
                and self.signature == other.signature
                and self.determinant == other.determinant
                and self.parity == other.parity
                and self.invariant_factors == other.invariant_factors)


def form_invariants(g: list[list[int]]) -> FormInvariants:
    """Computable congruence invariants of a symmetric integer bilinear form,
    taken modulo zero direct summands.

    G is congruent over Z to R (+) 0 with R nondegenerate (split off the
    saturated radical), so everything is read off G itself: rank and
    elementary divisors from the nonzero diagonal of one Smith normal form,
    the signature from the signs of G's leading minors after a congruence
    (Sylvester's law of inertia, `linalg.inertia`), parity from G's diagonal
    (x^T G x = sum x_i G_ii mod 2, so G is even exactly when R is), and
    det R = (-1)^p_minus * d_1 * ... * d_r.
    """
    n = len(g)
    for i in range(n):
        for j in range(n):
            if g[i][j] != g[j][i]:
                raise ValueError("matrix is not symmetric")
    if n == 0:
        return FormInvariants(0, 0, 0, (0, 0), 1, "even", ())
    rows = [list(row) for row in g]
    factors = tuple(x for x in linalg.smith_normal_form(rows).diagonal if x)
    rank = len(factors)
    pos, neg = linalg.inertia(rows)
    determinant = (-1) ** neg * prod(factors)
    parity = "even" if all(g[i][i] % 2 == 0 for i in range(n)) else "odd"
    return FormInvariants(n, n - rank, rank, (pos, neg), determinant, parity, factors)


# --- Frobenius-linked value distributions ----------------------------------


@dataclass(frozen=True)
class FrobeniusSpec:
    """Which Frobenius powers link the two coloring halves.

    Single mode (xi = x^(p^m)) is stored as exponents (0, m); double mode
    sets x and xi to the p^m1-th and p^m2-th powers of a common coloring.
    """

    p: int
    n: int
    m1: int
    m2: int
    mode: str  # "single" | "double"

    @classmethod
    def single(cls, p: int, n: int, m: int) -> "FrobeniusSpec":
        if m < 0:
            raise ValueError("m must be >= 0")
        return cls(p, n, 0, m, "single")

    @classmethod
    def double(cls, p: int, n: int, m1: int, m2: int) -> "FrobeniusSpec":
        if m1 < 0 or m2 < 0:
            raise ValueError("exponents must be >= 0")
        return cls(p, n, m1, m2, "double")

    def field(self) -> GF:
        return make_field(self.p, self.n)

    def mode_json(self):
        if self.mode == "single":
            return {"kind": "single", "m": self.m2}
        return {"kind": "double", "m1": self.m1, "m2": self.m2}


@dataclass(frozen=True)
class ValueDistribution:
    model: str                 # "field" | "tensor"
    spec: FrobeniusSpec
    counts: tuple              # sorted tuple of (key, count); key is an int code
    dim: int                   # the counts cover all of GF(p^n)^dim

    @property
    def total(self) -> int:
        return (self.spec.p ** self.spec.n) ** self.dim

    def probabilities(self) -> dict[int, Fraction]:
        return {k: Fraction(c, self.total) for k, c in self.counts}

    def value_string(self, key: int) -> str:
        # base-p digits of the key: n of them (field), or n rows of n (tensor)
        n = self.spec.n
        digits = _decode(key, self.spec.p, n if self.model == "field" else n * n)
        return ";".join(",".join(map(str, digits[i:i + n])) for i in range(0, len(digits), n))

    def to_json(self) -> dict:
        return {
            "model": self.model,
            "p": self.spec.p,
            "n": self.spec.n,
            "mode": self.spec.mode_json(),
            "entries": [{"value": self.value_string(k), "count": str(c)}
                        for k, c in self.counts],
            "total": str(self.total),
        }


def _legendre(a: int, p: int) -> int:
    a %= p
    return 0 if a == 0 else (1 if pow(a, (p - 1) // 2, p) == 1 else -1)


def _odd_counts(b: list[list[int]], p: int) -> list[int]:
    """Value counts of x^T b x on GF(p)^N, p odd, from the rank r and the
    discriminant D of its symmetric part (Lidl-Niederreiter, Thms 6.26 and
    6.27), the number and the last of its `linalg.congruent_minors` mod p:
    a nondegenerate form in r variables takes w
        p^(r-1) + p^((r-1)/2) eta((-1)^((r-1)/2) w D)   times, r odd,
        p^(r-1) + v(w) p^((r-2)/2) eta((-1)^(r/2) D)     times, r even,
    with eta the quadratic character, v(0) = p - 1 and v(w) = -1 otherwise;
    the radical multiplies every count by p^(N - r)."""
    n = len(b)
    half = (p + 1) // 2
    sym = [[(b[i][j] + b[j][i]) * half % p for j in range(n)] for i in range(n)]
    minors = linalg.congruent_minors(sym, p)
    r = len(minors)
    if r == 0:
        return [p ** n] + [0] * (p - 1)
    disc = minors[-1]
    free = p ** (n - r)
    if r % 2:
        return [free * (p ** (r - 1) + p ** ((r - 1) // 2)
                        * _legendre((-1) ** ((r - 1) // 2) * w * disc, p))
                for w in range(p)]
    eta = _legendre((-1) ** (r // 2) * disc, p)
    return [free * (p ** (r - 1) + (p - 1 if w == 0 else -1) * p ** ((r - 2) // 2) * eta)
            for w in range(p)]


def _even_counts(rows: list[int]) -> list[int]:
    """Value counts of Q(x) = x^T B x on GF(2)^N, row i of B given as a
    bit mask (bit j set when B_ij = 1).  A symplectic reduction of the
    polar form B + B^T splits GF(2)^N into h hyperbolic planes and a
    radical, on which Q is linear.  Q nonzero on the radical takes 0 and 1
    equally often; otherwise Q = 0 has 2^(N-1) + (-1)^Arf 2^(N-h-1)
    solutions, the Arf invariant being the sum of Q(e_i) Q(f_i) over the
    symplectic pairs."""
    n = len(rows)
    cols = [sum(1 << i for i, r in enumerate(rows) if r >> j & 1) for j in range(n)]
    polar = [r ^ c for r, c in zip(rows, cols)]

    def image(mat, v: int) -> int:   # mat^T v, the XOR of the rows v selects
        out = 0
        while v:
            low = v & -v
            out ^= mat[low.bit_length() - 1]
            v ^= low
        return out

    def q(v: int) -> int:
        return (v & image(cols, v)).bit_count() & 1

    vecs = [1 << i for i in range(n)]
    radical = []
    pairs = arf = 0
    while vecs:
        e = vecs.pop()
        pe = image(polar, e)
        k = next((k for k, v in enumerate(vecs) if (v & pe).bit_count() & 1), None)
        if k is None:
            radical.append(e)
            continue
        f = vecs.pop(k)
        pf = image(polar, f)
        arf ^= q(e) & q(f)
        pairs += 1
        vecs = [v ^ (e if (v & pf).bit_count() & 1 else 0) ^ (f if (v & pe).bit_count() & 1 else 0)
                for v in vecs]
    if any(q(w) for w in radical):
        return [2 ** (n - 1)] * 2
    if pairs == 0:
        return [2 ** n, 0]
    zeros = 2 ** (n - 1) + (-1) ** arf * 2 ** (n - pairs - 1)
    return [zeros, 2 ** n - zeros]


def _frobenius_matrix(field: GF, m: int) -> list[list[int]]:
    """F with F[s][t] = coefficient s of phi_m(w^t), w the power-basis root."""
    cols = [field.decode(field.frobenius_code(field.p ** t, m)) for t in range(field.n)]
    return [[cols[t][s] for t in range(field.n)] for s in range(field.n)]


def _core(m: list[list[int]], p: int) -> list[list[int]]:
    """M restricted to the pivot columns J of [M; M^T] mod p.  The unit
    vectors of J complement the two-sided radical R = ker M n ker M^T, so
    in a basis of e_J and R the matrix is M[J][J] (+) 0; that change of
    basis has GF(p) entries and commutes with every Frobenius power, so
    each value of S is taken q^(d - |J|) times as often as on M[J][J]."""
    rows = [list(row) for row in m] + [list(col) for col in zip(*m)]
    pivots = []
    for c in range(len(m)):
        piv = next((row for row in rows if row[c]), None)
        if piv is None:
            continue
        rows.remove(piv)
        inv = pow(piv[c], -1, p)
        for row in rows:
            f = row[c] * inv % p
            if f:
                row[:] = [(x - f * y) % p for x, y in zip(row, piv)]
        pivots.append(c)
    return [[m[i][j] for j in pivots] for i in pivots]


def _inverse_fourier(sums: list, p: int, k: int) -> list[int]:
    """sum over c in GF(p)^k of sums[c] zeta^(-c.v), for every v, where
    sums[c] is an element of Z[zeta] held as its integer coefficients on
    1, zeta, ..., zeta^(p-1); every result must be an integer.  One pass
    per digit: multiplying by zeta^(-s) rotates the coefficients by s."""
    sums = list(sums)
    for j in range(k):
        stride = p ** j
        for high in range(0, p ** k, stride * p):
            for base in range(high, high + stride):
                fiber = [sums[base + y * stride] for y in range(p)]
                for v in range(p):
                    turned = [f[y * v % p:] + f[:y * v % p] for y, f in enumerate(fiber)]
                    sums[base + v * stride] = [sum(col) for col in zip(*turned)]
    # the integer z is held as (z + t, t, ..., t)
    return [s[0] - s[1] for s in sums]


def _value_counts(m: list[list[int]], spec: FrobeniusSpec, value_model: str) -> tuple:
    """Counts of every value of S(a) = phi1(a)^T M phi2(a) over a in
    GF(q)^d, as sorted (key, count) pairs without zero counts.

    The value has k = n (field) or n^2 (tensor) coordinates over GF(p),
    digit j of the key.  Writing each a_i in the power basis, a functional
    c of the value is the quadratic form with matrix M (x) F1^T C F2 on
    GF(p)^(nd), where C is the n x n matrix of c on coefficient products:
    c . coeffs(w^(s+t)) in the field model, c itself in the tensor model.
    By character orthogonality, with zeta a primitive p-th root of unity,
        p^k count(v) = sum over c in GF(p)^k of sum_w N_c(w) zeta^(w - c.v),
    N_c(w) being the number of solutions of the form of c equal to w.  One
    form per line through 0 gives N_c for the whole line (N_(lc)(lw) =
    N_c(w)); the sum over c is an inverse Fourier transform over GF(p)^k."""
    field = spec.field()
    p, n = field.p, field.n
    core = _core(m, p)
    r = len(core)
    k = n if value_model == "field" else n * n
    f1, f2 = _frobenius_matrix(field, spec.m1), _frobenius_matrix(field, spec.m2)
    products = [[field.decode(field.mul_codes(p ** s, p ** t)) for t in range(n)]
                for s in range(n)]
    # the form of c is sum_j c_j (M (x) F1^T C_j F2), C_j the matrix of digit j
    unit_forms = []
    for j in range(k):
        cj = [[products[s][t][j] if value_model == "field" else int(s * n + t == j)
               for t in range(n)] for s in range(n)]
        kj = [[sum(f1[a][s] * cj[a][b] * f2[b][t] for a in range(n) for b in range(n)) % p
               for t in range(n)] for s in range(n)]
        unit_forms.append([[core[i][l] * kj[s][t] % p for l in range(r) for t in range(n)]
                           for i in range(r) for s in range(n)])
    if p == 2:
        unit_forms = [[sum(x << l for l, x in enumerate(row)) for row in form]
                      for form in unit_forms]
    sums: list = [None] * p ** k   # sum_w N_c(w) zeta^w for every c
    sums[0] = [p ** (n * r)] + [0] * (p - 1)
    for code in range(1, p ** k):
        c = _decode(code, p, k)
        if next(x for x in c if x) != 1:
            continue  # one functional per line
        used = [(x, form) for x, form in zip(c, unit_forms) if x]
        if p == 2:
            rows = [0] * (n * r)
            for _, form in used:
                rows = [a ^ b for a, b in zip(rows, form)]
            counts = _even_counts(rows)
        else:
            form = [[sum(x * f[i][l] for x, f in used) % p for l in range(n * r)]
                    for i in range(n * r)]
            counts = _odd_counts(form, p)
        for lam in range(1, p):
            inv = pow(lam, -1, p)
            key = sum(x * lam % p * p ** j for j, x in enumerate(c))
            sums[key] = [counts[w * inv % p] for w in range(p)]
    scale = field.q ** (len(m) - r)
    entries = []
    for key, z in enumerate(_inverse_fourier(sums, p, k)):
        count, rest = divmod(z, p ** k)
        assert rest == 0 and count >= 0
        if count:
            entries.append((key, count * scale))
    return tuple(entries)


def probability_distribution(t: Triangulation, spec: FrobeniusSpec,
                             value_model: str = "field",
                             cap: int | None = None) -> ValueDistribution:
    """Exact distribution of action values over all permitted colorings.

    The base coloring runs over the permitted space over GF(p^n); the Latin
    and Greek halves are its p^m1-th and p^m2-th Frobenius powers (Frobenius
    commutes with the integer constraint matrix, so both halves stay
    permitted).  Value model "field" multiplies in GF(p^n); "tensor" takes
    coefficientwise outer products, landing in n x n matrices over GF(p).
    The counts come in closed form from the Gram matrix mod p; a request
    past TRANSFORM_BOUND is refused before the kernel.  The space is solved
    over GF(p), whose basis is the GF(p^n) one, and refused past the cap
    before GF(p^n) is built: finding its modulus takes time exponential in n.
    """
    if value_model not in ("field", "tensor"):
        raise ValueError(f"unknown value model {value_model!r}")
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    if spec.n < 1:
        raise FieldError("extension degree must be >= 1")
    limit = enumeration_cap(cap)
    prime_field = make_field(spec.p)
    k = spec.n if value_model == "field" else spec.n ** 2
    if _power_exceeds(spec.p, k + 2, TRANSFORM_BOUND):
        raise CapExceeded(f"the value counts need {spec.p}^{k + 2} transform steps, "
                          f"bound is {TRANSFORM_BOUND}")
    space = permitted_space(t, prime_field)
    if _power_exceeds(spec.p, spec.n * space.dim, limit):
        raise CapExceeded(f"enumeration needs {spec.p}^{spec.n * space.dim} colorings, "
                          f"cap is {limit}")
    counts = _value_counts(_gram(t, space), spec, value_model)
    return ValueDistribution(value_model, spec, counts, space.dim)


def distribution_equal(d1: ValueDistribution, d2: ValueDistribution) -> tuple[bool, list[str]]:
    """Exact comparison of probability maps; totals may differ (enumeration
    spaces grow under Pachner moves while probabilities stay put)."""
    if d1.model != d2.model:
        raise ValueError(f"value model mismatch: {d1.model} vs {d2.model}")
    if (d1.spec.p, d1.spec.n) != (d2.spec.p, d2.spec.n):
        raise ValueError("field mismatch")
    p1, p2 = d1.probabilities(), d2.probabilities()
    diffs = []
    for k in sorted(set(p1) | set(p2)):
        a, b = p1.get(k, Fraction(0)), p2.get(k, Fraction(0))
        if a != b:
            diffs.append(f"value {d1.value_string(k)}: {a} vs {b}")
    return not diffs, diffs
