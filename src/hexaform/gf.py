"""Finite fields GF(p^n) with deterministic modulus choice.

Elements are stored as integer codes in [0, q): the code is the base-p
encoding of the coefficient vector in the power basis of the modulus root.
Lookup tables of the field operations are built on request, as numpy
arrays; numpy is imported only then, so importing the package does not
load it.
"""

from __future__ import annotations

from functools import lru_cache

Poly = tuple[int, ...]  # little-endian coefficient tuple over GF(p), no trailing zeros


class FieldError(ValueError):
    pass


# Miller-Rabin to the first 13 prime bases is exact below the smallest
# strong pseudoprime to all of them (Sorenson and Webster 2015)
_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def is_prime(p: int) -> bool:
    """Deterministic strong Miller-Rabin: base a passes only when a^d = 1 or
    a^(2^r d) = -1 for some r < s; a 1 squared from anything but -1 is a
    nontrivial square root of 1, proof that p is composite.  FieldError from
    PRIME_BOUND on, where these bases no longer decide."""
    if p < 2:
        return False
    if p >= PRIME_BOUND:
        raise FieldError(f"primality is decided only below {PRIME_BOUND}")
    if any(p % a == 0 for a in _WITNESSES):
        return p in _WITNESSES
    d, s = p - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _WITNESSES:
        x = pow(a, d, p)
        if x in (1, p - 1):
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            return False
    return True


def _trim(c: list[int]) -> Poly:
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def _poly_mul(a: Poly, b: Poly, p: int) -> Poly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _trim(out)


def _poly_mod(a: Poly, m: Poly, p: int) -> Poly:
    a = list(a)
    dm = len(m) - 1
    lead_inv = pow(m[-1], p - 2, p)
    while len(a) - 1 >= dm and a:
        if a[-1]:
            f = (a[-1] * lead_inv) % p
            shift = len(a) - 1 - dm
            for i, c in enumerate(m):
                a[shift + i] = (a[shift + i] - f * c) % p
        a.pop()
    return _trim(a)


def _irreducible(m: Poly, p: int) -> bool:
    """Trial division by every monic polynomial of degree 1..deg/2."""
    deg = len(m) - 1
    for d in range(1, deg // 2 + 1):
        for code in range(p ** d):
            cand = _decode(code, p, d) + (1,)
            if not _poly_mod(m, cand, p):
                return False
    return True


def _decode(code: int, p: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return tuple(out)


@lru_cache(maxsize=None)
def _smallest_modulus(p: int, n: int) -> Poly:
    """Lexicographically smallest irreducible monic degree-n polynomial.

    Candidates x^n + c_{n-1} x^{n-1} + ... + c_0 are ordered by the tuple
    (c_{n-1}, ..., c_0) ascending.
    """
    if n == 1:
        return (0, 1)  # the polynomial x
    for code in range(p ** n):
        # code digits give the ordering key (c_{n-1}, ..., c_0); low digit = c_0
        key = _decode(code, p, n)  # (c_0, c_1, ..., c_{n-1}) little-endian
        coeffs = key + (1,)
        if _irreducible(coeffs, p):
            return coeffs
    raise AssertionError("no irreducible polynomial found")


class GF:
    """The field GF(p^n) with the canonical (lex-smallest) modulus."""

    def __init__(self, p: int, n: int = 1):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if n < 1:
            raise FieldError("extension degree must be >= 1")
        self.p = p
        self.n = n
        self.q = p ** n
        self.modulus = _smallest_modulus(p, n)
        self._tables: dict = {}

    def __repr__(self):
        return f"GF({self.p}^{self.n})" if self.n > 1 else f"GF({self.p})"

    def __eq__(self, other):
        return isinstance(other, GF) and (self.p, self.n) == (other.p, other.n)

    def __hash__(self):
        return hash((self.p, self.n))

    # --- code-level arithmetic -------------------------------------------

    def encode(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def decode(self, code: int) -> tuple[int, ...]:
        return _decode(code, self.p, self.n)

    def add_codes(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        ca, cb = self.decode(a), self.decode(b)
        return self.encode((x + y) % self.p for x, y in zip(ca, cb))

    def neg_code(self, a: int) -> int:
        if self.p == 2:
            return a
        return self.encode((-x) % self.p for x in self.decode(a))

    def sub_codes(self, a: int, b: int) -> int:
        return self.add_codes(a, self.neg_code(b))

    def mul_codes(self, a: int, b: int) -> int:
        pa = _trim(list(self.decode(a)))
        pb = _trim(list(self.decode(b)))
        prod = _poly_mod(_poly_mul(pa, pb, self.p), self.modulus, self.p)
        return self.encode(prod + (0,) * (self.n - len(prod)))

    def pow_code(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        result = 1
        base = a
        e %= self.q - 1 or 1
        if e == 0:
            e = self.q - 1 if a else 0
        while e:
            if e & 1:
                result = self.mul_codes(result, base)
            base = self.mul_codes(base, base)
            e >>= 1
        return result

    def inv_code(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero in " + repr(self))
        return self.pow_code(a, self.q - 2)

    def frobenius_code(self, a: int, m: int) -> int:
        return self.pow_code(a, pow(self.p, m, self.q - 1) if self.q > 2 else 1)

    # --- element construction --------------------------------------------

    def __call__(self, value) -> "GFElem":
        if isinstance(value, GFElem):
            if value.field != self:
                raise FieldError("element from a different field")
            return value
        if isinstance(value, int):
            return GFElem(self, value % self.p)
        return GFElem(self, self.encode(value))

    def from_code(self, code: int) -> "GFElem":
        return GFElem(self, code)

    @property
    def zero(self) -> "GFElem":
        return GFElem(self, 0)

    @property
    def one(self) -> "GFElem":
        return GFElem(self, 1)

    def generator(self) -> "GFElem":
        """Root of the modulus (the power-basis generator); for n = 1 returns 1."""
        return GFElem(self, self.p if self.n > 1 else 1)

    def elements(self):
        return [GFElem(self, c) for c in range(self.q)]

    # --- lookup tables for vectorized work --------------------------------

    def _table(self, name: str, build):
        if name not in self._tables:
            self._tables[name] = build()
        return self._tables[name]

    def add_table(self):
        return self._table("add", lambda: _array(
            [[self.add_codes(a, b) for b in range(self.q)] for a in range(self.q)]))

    def mul_table(self):
        return self._table("mul", lambda: _array(
            [[self.mul_codes(a, b) for b in range(self.q)] for a in range(self.q)]))

    def frobenius_table(self, m: int):
        return self._table(f"frob{m}", lambda: _array(
            [self.frobenius_code(a, m) for a in range(self.q)]))

    def neg_table(self):
        return self._table("neg", lambda: _array(
            [self.neg_code(a) for a in range(self.q)]))

    def coeff_table(self, s: int):
        return self._table(f"coeff{s}", lambda: _array(
            [self.decode(a)[s] for a in range(self.q)]))


def _array(rows):
    """An int64 numpy array of the given codes."""
    import numpy as np
    return np.array(rows, dtype=np.int64)


class GFElem:
    __slots__ = ("field", "code")

    def __init__(self, field: GF, code: int):
        self.field = field
        self.code = code

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.field.decode(self.code)

    def _coerce(self, other) -> "GFElem":
        if isinstance(other, GFElem):
            if other.field != self.field:
                raise FieldError("mixed-field arithmetic")
            return other
        if isinstance(other, int):
            return self.field(other)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElem(self.field, self.field.add_codes(self.code, o.code))

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElem(self.field, self.field.sub_codes(self.code, o.code))

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElem(self.field, self.field.sub_codes(o.code, self.code))

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElem(self.field, self.field.mul_codes(self.code, o.code))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return GFElem(self.field, self.field.mul_codes(self.code, self.field.inv_code(o.code)))

    def __pow__(self, e: int):
        return GFElem(self.field, self.field.pow_code(self.code, e))

    def __neg__(self):
        return GFElem(self.field, self.field.neg_code(self.code))

    def __eq__(self, other):
        if isinstance(other, int):
            return self.code == self.field(other).code
        return (isinstance(other, GFElem) and other.field == self.field
                and other.code == self.code)

    def __hash__(self):
        return hash((self.field.p, self.field.n, self.code))

    def __bool__(self):
        return self.code != 0

    def __repr__(self):
        if self.field.n == 1:
            return str(self.code)
        return f"{self.field!r}:{self.coeffs}"


def make_field(p: int, n: int = 1) -> GF:
    """GF(p^n) with the lexicographically smallest irreducible monic modulus."""
    return GF(p, n)


def frobenius_power(a: GFElem, m: int) -> GFElem:
    """a -> a^(p^m), the m-fold Frobenius automorphism."""
    if m < 0:
        raise ValueError("m must be >= 0")
    return GFElem(a.field, a.field.frobenius_code(a.code, m))


def gf_nullspace(rows: list[list[GFElem]], field: GF | None = None) -> list[list[GFElem]]:
    """Basis of {v : A v = 0} over the common field of the entries.

    Deterministic: reduced row echelon form with first-nonzero pivoting;
    each basis vector has a 1 in its free coordinate.
    """
    if not rows:
        raise ValueError("matrix must be nonempty")
    fields = {e.field for row in rows for e in row}
    if field is not None:
        fields.add(field)
    if len(fields) != 1:
        raise FieldError("entries from mixed fields")
    (f,) = fields
    m, n = len(rows), len(rows[0])
    a = [[e.code for e in row] for row in rows]
    pivots: list[int] = []
    r = 0
    for c in range(n):
        piv = next((i for i in range(r, m) if a[i][c]), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        inv = f.inv_code(a[r][c])
        a[r] = [f.mul_codes(x, inv) for x in a[r]]
        for i in range(m):
            if i != r and a[i][c]:
                fac = a[i][c]
                a[i] = [f.sub_codes(x, f.mul_codes(fac, y)) for x, y in zip(a[i], a[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    free = [c for c in range(n) if c not in pivots]
    basis = []
    for c in free:
        v = [0] * n
        v[c] = 1
        for r_i, pc in enumerate(pivots):
            v[pc] = f.neg_code(a[r_i][c])
        basis.append([GFElem(f, x) for x in v])
    return basis
