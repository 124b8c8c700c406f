"""Multivariate polynomials with coefficients in Z or GF(p) (p = 0 means Z).

Terms live in a dict keyed by exponent vectors; zero coefficients are never
stored, so equality is plain dict equality.  Printing uses graded
lexicographic order, highest degree first, to give a stable canonical form.
"""

from __future__ import annotations


class MPoly:
    __slots__ = ("variables", "p", "terms")

    def __init__(self, variables, p: int = 0, terms=None):
        self.variables = tuple(variables)
        self.p = p
        t = {}
        if terms:
            for exps, c in terms.items():
                if len(exps) != len(self.variables):
                    raise ValueError("exponent vector length mismatch")
                c = c % p if p else c
                if c:
                    t[tuple(exps)] = c
        self.terms = t

    # --- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, variables, p: int = 0) -> "MPoly":
        return cls(variables, p)

    @classmethod
    def constant(cls, variables, c: int, p: int = 0) -> "MPoly":
        return cls(variables, p, {(0,) * len(tuple(variables)): c})

    @classmethod
    def variable(cls, variables, name: str, p: int = 0) -> "MPoly":
        variables = tuple(variables)
        if name not in variables:
            raise ValueError(f"undeclared variable {name!r}")
        e = [0] * len(variables)
        e[variables.index(name)] = 1
        return cls(variables, p, {tuple(e): 1})

    # --- arithmetic --------------------------------------------------------

    def _check(self, other: "MPoly") -> None:
        if self.variables != other.variables or self.p != other.p:
            raise ValueError("polynomials over different variable sets or moduli")

    def __add__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.variables, other, self.p)
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            t[e] = t.get(e, 0) + c
        return MPoly(self.variables, self.p, t)

    __radd__ = __add__

    def __neg__(self):
        return MPoly(self.variables, self.p, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        if isinstance(other, int):
            other = MPoly.constant(self.variables, other, self.p)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, int):
            return MPoly(self.variables, self.p,
                         {e: c * other for e, c in self.terms.items()})
        self._check(other)
        t: dict[tuple, int] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                t[e] = t.get(e, 0) + c1 * c2
        return MPoly(self.variables, self.p, t)

    __rmul__ = __mul__

    def __pow__(self, k: int):
        if k < 0:
            raise ValueError("negative power")
        out = MPoly.constant(self.variables, 1, self.p)
        base = self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    def __eq__(self, other):
        return (isinstance(other, MPoly) and self.variables == other.variables
                and self.p == other.p and self.terms == other.terms)

    def __hash__(self):
        return hash((self.variables, self.p, frozenset(self.terms.items())))

    def __bool__(self):
        return bool(self.terms)

    # --- queries -----------------------------------------------------------

    @property
    def degree(self) -> int:
        return max((sum(e) for e in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.terms}
        return len(degs) <= 1

    def raise_exponents(self, k: int) -> "MPoly":
        """Substitute every variable v by v^k."""
        return MPoly(self.variables, self.p,
                     {tuple(x * k for x in e): c for e, c in self.terms.items()})

    def reduce_exponents(self, q: int) -> "MPoly":
        """The same function on GF(q)^n with every exponent at most q - 1,
        by x^q = x: a positive e becomes ((e - 1) mod (q - 1)) + 1."""
        t: dict[tuple, int] = {}
        for e, c in self.terms.items():
            key = tuple((x - 1) % (q - 1) + 1 if x else 0 for x in e)
            t[key] = t.get(key, 0) + c
        return MPoly(self.variables, self.p, t)

    def rename(self, mapping: dict[str, str], new_variables) -> "MPoly":
        new_variables = tuple(new_variables)
        idx = [new_variables.index(mapping.get(v, v)) for v in self.variables]
        t = {}
        for e, c in self.terms.items():
            ne = [0] * len(new_variables)
            for pos, x in zip(idx, e):
                ne[pos] += x
            key = tuple(ne)
            t[key] = t.get(key, 0) + c
        return MPoly(new_variables, self.p, t)

    def evaluate(self, values: dict):
        """Evaluate at the given variable assignment.

        Values may be ints (result int, reduced mod p if p > 0) or elements
        supporting ring arithmetic such as GFElem.
        """
        missing = [v for v in self.variables if v not in values]
        if missing:
            raise ValueError(f"missing values for {missing}")
        total = None
        for e, c in sorted(self.terms.items()):
            term = None
            for name, k in zip(self.variables, e):
                if k:
                    f = values[name] ** k
                    term = f if term is None else term * f
            contrib = c if term is None else term * c
            total = contrib if total is None else total + contrib
        if total is None:
            ref = next(iter(values.values())) if values else 0
            total = ref * 0 if not isinstance(ref, int) else 0
        if isinstance(total, int) and self.p:
            total %= self.p
        return total

    # --- printing ----------------------------------------------------------

    def _sorted_terms(self):
        # graded lex, highest degree first; within a degree, lex descending on
        # the exponent vector so earlier variables print first
        return sorted(self.terms.items(), key=lambda ec: (-sum(ec[0]), tuple(-x for x in ec[0])))

    def __str__(self):
        if not self.terms:
            return "0"
        parts = []
        for e, c in self._sorted_terms():
            factors = []
            for name, k in zip(self.variables, e):
                if k == 1:
                    factors.append(name)
                elif k > 1:
                    factors.append(f"{name}^{k}")
            body = "*".join(factors)
            if not body:
                parts.append(str(c))
            elif c == 1:
                parts.append(body)
            else:
                parts.append(f"{c}*{body}")
        return " + ".join(parts)

    def __repr__(self):
        mod = f" mod {self.p}" if self.p else ""
        return f"<MPoly {self}{mod}>"


def linear_combination(variables, coeffs: dict[str, int], p: int = 0) -> MPoly:
    """Sum of coeff * variable over the given mapping."""
    out = MPoly.zero(variables, p)
    for name, c in coeffs.items():
        out = out + MPoly.variable(variables, name, p) * c
    return out
