"""The Fraction-coefficient Q(zeta_m) kernel that eiscong.cyclotomic replaced,
kept as a test oracle, with the dense polynomial helpers it needs.

The code below is the library's former `polys` module and its former
`CycElement` / `CyclotomicField`, verbatim except that `polys.f` calls read
`f`.  Every coefficient is a Fraction and reduction mod Phi_m is division
over Q; it is slow and independent of the integer kernel.

`reduce_by_division` is the integer kernel's former `_CycField.reduce`,
verbatim but for its first argument, a field of `eiscong.cyclotomic`: it
folds exponents with zeta^m = 1, or with zeta^(m/2) = -1 when m is even,
and then divides by the monic Phi_m, where the kernel now reads every
power at or above the degree off the field's table of zeta powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from eiscong import polys
from eiscong.arith import DomainError, divisors, euler_phi

DEGREE_CAP = 200

Poly = list  # list of Fraction/int, ascending powers; [] is the zero polynomial


def trim(f: Poly) -> Poly:
    while f and f[-1] == 0:
        f.pop()
    return f


def degree(f: Poly) -> int:
    return len(f) - 1  # degree of zero polynomial is -1


def add(f: Poly, g: Poly) -> Poly:
    n = max(len(f), len(g))
    out = [(f[i] if i < len(f) else 0) + (g[i] if i < len(g) else 0) for i in range(n)]
    return trim(out)


def neg(f: Poly) -> Poly:
    return [-c for c in f]


def sub(f: Poly, g: Poly) -> Poly:
    return add(f, neg(g))


def mul(f: Poly, g: Poly) -> Poly:
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] += a * b
    return trim(out)


def scale(f: Poly, c) -> Poly:
    if c == 0:
        return []
    return trim([a * c for a in f])


def divmod_exact(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """Quotient and remainder over Q (g nonzero)."""
    if not g:
        raise ZeroDivisionError("polynomial division by zero")
    f = list(f)
    q = [Fraction(0)] * max(0, len(f) - len(g) + 1)
    inv_lead = Fraction(1) / Fraction(g[-1])
    while len(f) >= len(g) and trim(f):
        if len(f) < len(g):
            break
        c = f[-1] * inv_lead
        d = len(f) - len(g)
        q[d] = c
        for i, b in enumerate(g):
            f[d + i] -= c * b
        trim(f)
    return trim(q), f


def divmod_int_exact(f: Poly, g: Poly) -> Poly:
    """Exact quotient of integer polynomials with monic g (remainder must be 0)."""
    q, r = divmod_exact([Fraction(c) for c in f], [Fraction(c) for c in g])
    if r:
        raise ArithmeticError("division was not exact")
    assert all(c.denominator == 1 for c in q)
    return [int(c) for c in q]


def mod(f: Poly, g: Poly) -> Poly:
    return divmod_exact(f, g)[1]


def gcdex(f: Poly, g: Poly) -> tuple[Poly, Poly, Poly]:
    """(d, u, v) with u*f + v*g = d = monic gcd(f, g) over Q."""
    r0, r1 = [Fraction(c) for c in f], [Fraction(c) for c in g]
    u0, u1 = [Fraction(1)], []
    v0, v1 = [], [Fraction(1)]
    while trim(r1):
        q, r = divmod_exact(r0, r1)
        r0, r1 = r1, r
        u0, u1 = u1, sub(u0, mul(q, u1))
        v0, v1 = v1, sub(v0, mul(q, v1))
    if not r0:
        return [], u0, v0
    lead = r0[-1]
    inv = Fraction(1) / lead
    return scale(r0, inv), scale(u0, inv), scale(v0, inv)


def resultant(f: Poly, g: Poly) -> Fraction:
    """Res(f, g) by the Euclidean recursion; exact over Q."""
    f = trim([Fraction(c) for c in f])
    g = trim([Fraction(c) for c in g])
    if not f or not g:
        return Fraction(0)
    res = Fraction(1)
    while True:
        df, dg = degree(f), degree(g)
        if dg == 0:
            return res * g[0] ** df
        _, r = divmod_exact(f, g)
        dr = degree(r)
        if not r:
            return Fraction(0)
        res *= Fraction((-1) ** (df * dg)) * g[-1] ** (df - dr)
        f, g = g, r



@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m as ascending integer coefficients, by exact recursive division."""
    if m < 1:
        raise DomainError(f"cyclotomic_polynomial requires m >= 1 (got {m})")
    f = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            f = divmod_int_exact(f, list(cyclotomic_polynomial(d)))
    return tuple(f)


@lru_cache(maxsize=None)
def CyclotomicField(m: int) -> "_CycField":
    deg = euler_phi(m)
    if deg > DEGREE_CAP:
        raise DomainError(
            f"Q(zeta_{m}) has degree {deg} > {DEGREE_CAP}; refusing (desk-scale cap)"
        )
    return _CycField(m, deg, cyclotomic_polynomial(m))


@dataclass(frozen=True)
class _CycField:
    m: int
    degree: int
    modulus: tuple[int, ...]  # Phi_m, ascending, monic

    def __repr__(self):
        return f"Q(zeta_{self.m})"

    def element(self, coeffs) -> "CycElement":
        cs = [Fraction(c) for c in coeffs]
        if len(cs) > self.degree:
            cs = mod(cs, list(self.modulus))
        cs += [Fraction(0)] * (self.degree - len(cs))
        return CycElement(self, tuple(cs[: self.degree]))

    def zero(self) -> "CycElement":
        return self.element([])

    def one(self) -> "CycElement":
        return self.element([1])

    def from_rational(self, q) -> "CycElement":
        return self.element([Fraction(q)])

    def zeta(self, j: int = 1) -> "CycElement":
        """zeta_m ** j."""
        j %= self.m
        return self.element([0] * j + [1])

    def galois_group(self) -> list[int]:
        return [a for a in range(1, self.m + 1) if gcd(a, self.m) == 1]


def compositum(a: _CycField, b: _CycField) -> _CycField:
    return CyclotomicField(lcm(a.m, b.m))


@dataclass(frozen=True)
class CycElement:
    """Element of Q(zeta_m) as Fraction coefficients on 1, zeta, ..., zeta^(deg-1)."""

    field: _CycField
    coeffs: tuple[Fraction, ...]

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def is_rational(self) -> bool:
        return all(c == 0 for c in self.coeffs[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def denominator(self) -> int:
        d = 1
        for c in self.coeffs:
            d = lcm(d, c.denominator)
        return d

    # -- field promotion ---------------------------------------------------

    def embed(self, m: int) -> "CycElement":
        """Image in Q(zeta_m) under zeta_a -> zeta_m^(m/a); requires a | m."""
        a = self.field.m
        if m % a:
            raise DomainError(f"cannot embed Q(zeta_{a}) into Q(zeta_{m})")
        if m == a:
            return self
        target = CyclotomicField(m)
        step = m // a
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            out[(i * step) % m] += c
        return target.element(out)

    @staticmethod
    def promote(a: "CycElement", b: "CycElement"):
        if a.field.m == b.field.m:
            return a, b
        m = lcm(a.field.m, b.field.m)
        return a.embed(m), b.embed(m)

    # -- ring/field operations ----------------------------------------------

    def _coerce(self, other) -> "CycElement | None":
        if isinstance(other, CycElement):
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.from_rational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycElement.promote(self, o)
        return a.field.element([x + y for x, y in zip(a.coeffs, b.coeffs)])

    __radd__ = __add__

    def __neg__(self):
        return self.field.element([-c for c in self.coeffs])

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycElement.promote(self, o)
        prod = mul(list(a.coeffs), list(b.coeffs))
        return a.field.element(prod)

    __rmul__ = __mul__

    def inverse(self) -> "CycElement":
        """Field inverse via extended gcd with Phi_m."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of 0 in cyclotomic field")
        g, u, _ = gcdex(list(self.coeffs), [Fraction(c) for c in self.field.modulus])
        if degree(g) != 0:
            raise ArithmeticError("representative not invertible mod Phi_m")
        return self.field.element(scale(u, Fraction(1) / g[0]))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycElement.promote(self, o)
        return a * b.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        result = self.field.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        a, b = CycElement.promote(self, o)
        return a.coeffs == b.coeffs

    def __hash__(self):
        return hash((self.field.m, self.coeffs))

    # -- Galois action -------------------------------------------------------

    def galois(self, j: int) -> "CycElement":
        """sigma_j: zeta -> zeta^j, for gcd(j, m) = 1."""
        m = self.field.m
        if gcd(j, m) != 1:
            raise DomainError(f"sigma_{j} is not a Galois element for m={m}")
        out = [Fraction(0)] * m
        for i, c in enumerate(self.coeffs):
            out[(i * j) % m] += c
        return self.field.element(out)

    def conjugate(self) -> "CycElement":
        """Complex conjugation zeta -> zeta^(-1)."""
        return self.galois(self.field.m - 1) if self.field.m > 1 else self

    def norm_to_Q(self) -> Fraction:
        """N_{Q(zeta_m)/Q}: resultant of Phi_m with the representative."""
        if self.is_zero():
            return Fraction(0)
        r = resultant([Fraction(c) for c in self.field.modulus], list(self.coeffs))
        return Fraction(r)

    # -- display ---------------------------------------------------------------

    def __repr__(self):
        return f"CycElement({self})"

    def __str__(self):
        m = self.field.m
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                z = f"z{m}" if i == 1 else f"z{m}^{i}"
                if c == 1:
                    terms.append(z)
                elif c == -1:
                    terms.append(f"-{z}")
                else:
                    terms.append(f"{c}*{z}")
        if not terms:
            return "0"
        out = terms[0]
        for t in terms[1:]:
            out += f" + {t}" if not t.startswith("-") else f" - {t[1:]}"
        return out


def reduce_by_division(K, v: list[int]) -> list[int]:
    """Integer coefficients on 1..x^(len-1) mod Phi_m, as `degree` entries."""
    m, d = K.m, K.degree
    # fold with zeta^m = 1, or with zeta^(m/2) = -1 when m is even
    h, s = (m, 1) if m % 2 else (m // 2, -1)
    if len(v) > h:
        w = v[:h]
        for k in range(h, len(v), h):
            sign = s ** (k // h)
            for i, c in enumerate(v[k:k + h]):
                if c:
                    w[i] += sign * c
        v = w
    if len(v) > d:
        return polys.divmod_monic(v, K.modulus)[1]
    return v + [0] * (d - len(v))
