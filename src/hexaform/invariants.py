"""Manifold invariants of the action: congruence data of the integral Gram
matrix, and exact value-probability distributions over finite fields with
Frobenius-linked colorings.

Probabilities are exact rationals obtained by full enumeration of the
permitted coloring space; past the configured cap the computation refuses
to run rather than sample.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from math import prod

import numpy as np

from . import linalg
from .gf import GF, make_field
from .hexagon import permitted_space
from .triangulation import Triangulation, faces

DEFAULT_CAP = 10_000_000


class CapExceeded(RuntimeError):
    def __init__(self, required: int, cap: int):
        super().__init__(f"enumeration needs {required} colorings, cap is {cap}")
        self.required = required
        self.cap = cap


def enumeration_cap(explicit: int | None = None) -> int:
    if explicit is not None:
        return explicit
    env = os.environ.get("HEXAFORM_CAP")
    return int(env) if env else DEFAULT_CAP


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
    the signature from Sylvester's law of inertia, parity from G's diagonal
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
    total: int

    def probability(self, key: int) -> Fraction:
        for k, c in self.counts:
            if k == key:
                return Fraction(c, self.total)
        return Fraction(0)

    def probabilities(self) -> dict[int, Fraction]:
        return {k: Fraction(c, self.total) for k, c in self.counts}

    def value_string(self, key: int) -> str:
        f = self.spec.field()
        if self.model == "field":
            return ",".join(str(c) for c in f.decode(key))
        n = self.spec.n
        digits = []
        rest = key
        for _ in range(n * n):
            digits.append(rest % self.spec.p)
            rest //= self.spec.p
        rows = [digits[i * n:(i + 1) * n] for i in range(n)]
        return ";".join(",".join(str(x) for x in row) for row in rows)

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


def _functional_codes(space, field: GF, tet) -> list[int]:
    """Codes of (x_t + y_t) on each basis vector, for one tetrahedron."""
    nt = len(space.tets)
    i = space.tets.index(tet)
    return [field.add_codes(vec[i].code, vec[nt + i].code) for vec in space.basis]


def _enumerate_functional(field: GF, codes: list[int]) -> np.ndarray:
    """Values of the linear functional with the given basis coefficients on
    every point of the coefficient space, as an array of field codes."""
    mul = field.mul_table()
    add = field.add_table()
    vals = np.zeros(1, dtype=np.int16)
    for l in codes:
        col = mul[:, l].astype(np.int16)          # contribution per digit choice
        vals = add[col[:, None], vals[None, :]].reshape(-1).astype(np.int16)
    return vals


def probability_distribution(t: Triangulation, spec: FrobeniusSpec,
                             value_model: str = "field",
                             cap: int | None = None) -> ValueDistribution:
    """Exact distribution of action values over all permitted colorings.

    The base coloring runs over the permitted space over GF(p^n); the Latin
    and Greek halves are its p^m1-th and p^m2-th Frobenius powers (Frobenius
    commutes with the integer constraint matrix, so both halves stay
    permitted).  Value model "field" multiplies in GF(p^n); "tensor" takes
    coefficientwise outer products, landing in n x n matrices over GF(p).
    """
    if value_model not in ("field", "tensor"):
        raise ValueError(f"unknown value model {value_model!r}")
    if t.signs is None:
        raise ValueError("triangulation must be oriented (signs missing)")
    field = spec.field()
    space = permitted_space(t, field)
    d = space.dim
    total = field.q ** d
    limit = enumeration_cap(cap)
    if total > limit:
        raise CapExceeded(total, limit)

    # reference-counted per-tetrahedron value arrays
    need: dict = {}
    plan = []
    for u in t.pentachora:
        fs = faces(u)
        rear, front = fs[0], fs[4]
        plan.append((rear, front))
        need[rear] = need.get(rear, 0) + 1
        need[front] = need.get(front, 0) + 1
    cache: dict = {}

    def tet_values(tet) -> np.ndarray:
        if tet not in cache:
            cache[tet] = _enumerate_functional(field, _functional_codes(space, field, tet))
        return cache[tet]

    def release(tet) -> None:
        need[tet] -= 1
        if need[tet] == 0:
            cache.pop(tet, None)

    add = field.add_table()
    mul = field.mul_table()
    neg = field.neg_table()
    fr1 = field.frobenius_table(spec.m1)
    fr2 = field.frobenius_table(spec.m2)

    if value_model == "field":
        s_vals = np.zeros(total, dtype=np.int16)
        for sign, (rear, front) in zip(t.signs, plan):
            a = fr1[tet_values(rear)]
            b = fr2[tet_values(front)]
            release(rear)
            release(front)
            prod = mul[a, b]
            if sign == -1:
                prod = neg[prod]
            s_vals = add[s_vals, prod].astype(np.int16)
        counts = np.bincount(s_vals, minlength=field.q)
        entries = tuple((int(k), int(c)) for k, c in enumerate(counts) if c)
        return ValueDistribution("field", spec, entries, total)

    # tensor model: accumulate each coefficient of the outer product mod p
    n = field.n
    p = field.p
    coeff = [field.coeff_table(s) for s in range(n)]
    acc = [[np.zeros(total, dtype=np.int16) for _ in range(n)] for _ in range(n)]
    for sign, (rear, front) in zip(t.signs, plan):
        a = fr1[tet_values(rear)]
        b = fr2[tet_values(front)]
        release(rear)
        release(front)
        sgn = 1 if sign == 1 else p - 1
        a_co = [coeff[s][a] for s in range(n)]
        b_co = [coeff[tt][b] for tt in range(n)]
        for s in range(n):
            for tt in range(n):
                acc[s][tt] = (acc[s][tt] + sgn * a_co[s] * b_co[tt]) % p
    key = np.zeros(total, dtype=np.int64)
    weight = 1
    for s in range(n):
        for tt in range(n):
            key += acc[s][tt].astype(np.int64) * weight
            weight *= p
    values, counts = np.unique(key, return_counts=True)
    entries = tuple((int(k), int(c)) for k, c in zip(values, counts))
    return ValueDistribution("tensor", spec, entries, total)


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
