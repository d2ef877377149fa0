"""Exact arithmetic in Q(zeta_m), on integer numerators over one denominator.

An element is num/den: `num` holds integer coefficients on the power basis
1, zeta, ..., zeta^(d-1) (d = euler_phi(m)) and `den` > 0 is one common
denominator, kept canonical with gcd(den, content(num)) = 1 by
`polys.canonical`.  Equal elements of one field therefore have equal
(num, den) and equal hashes.  All arithmetic stays in Z.  Elements form a
ring under +, - and *, and nothing divides: the one inverse the library
takes, 1/tau(chi), has the closed form of `characters.gauss_sum_inverse`.
Rational scalars scale num and den and are never promoted to elements.

Each field holds the m powers zeta^0, ..., zeta^(m-1) as a table built once,
in O(m d), when the field is made; `zeta(j)` returns entry j mod m, so a
character value is a lookup.  The table is constant data of the field, like
its modulus, and takes no part in equality, hashing or repr.  Beside it the
field keeps each power's nonzero entries, and every reduction mod Phi_m is
read off them: an integer vector v on 1, x, x^2, ... reduces to v[:d] plus
v[j] zeta^(j mod m) for each j >= d, one addition per nonzero entry of each
power and no division.  zeta^j is a unit vector up to sign when j mod m is
below d, or lies in [m/2, m/2 + d) for even m (where zeta^(m/2) = -1), so
most of a product's top half costs one addition per coefficient, and
`polys.mul` by such a power costs O(d), since it loops over the sparser
factor.  `power_sum(counts)`, the element sum_j counts[j] zeta^j that Gauss
sums and Bernoulli numbers are made of, is the reduction of the counts;
q-expansion coefficients add the same table entries as they are sieved.

CycElement is a `record` with `__slots__`, and every element is built by
`_element`, which puts num/den into the package's one coefficient format with
`polys.canonical` (den = 1 needs no gcd: an element of Z[zeta_m], such as a
power sum or a product of integral elements, is canonical as it is
computed).  Q-expansions and newform records store their coefficients in
that format as (num, den) pairs, not as elements; an element is built from a
pair only to be shown or to enter field arithmetic.  Arithmetic between
elements of one field object skips `promote`; only mixed fields embed into
the compositum.

Z[zeta_f, phi] (phi of order k) is realized as Z[zeta_lcm(f,k)]: values of phi
are k-th roots of unity, so a single power basis carries all compositum
arithmetic.  Degrees are capped at DEGREE_CAP = 200.  The reason once given
for it, the cost of a generic inverse, went with that inverse, and no
measured cost stands in its place: ROADMAP item 6 replaces it with a
measured cap.  It refuses Q(zeta_253) and Q(zeta_506), both of degree 220,
and so every phi of order 11 or 22 at the 23-good level 529.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from . import polys
from .arith import DomainError, divisors, euler_phi, factor, record

DEGREE_CAP = 200


@lru_cache(maxsize=None)
def cyclotomic_polynomial(m: int) -> tuple[int, ...]:
    """Phi_m as ascending integer coefficients, by exact recursive division."""
    if m < 1:
        raise DomainError(f"cyclotomic_polynomial requires m >= 1 (got {m})")
    f = [-1] + [0] * (m - 1) + [1]  # x^m - 1
    for d in divisors(m):
        if d < m:
            f, r = polys.divmod_monic(f, cyclotomic_polynomial(d))
            assert not any(r), "Phi_d must divide x^m - 1"
    return tuple(f)


@lru_cache(maxsize=None)
def CyclotomicField(m: int) -> "_CycField":
    deg = euler_phi(m)
    if deg > DEGREE_CAP:
        raise DomainError(
            f"Q(zeta_{m}) has degree {deg} > {DEGREE_CAP}; refusing (desk-scale cap)"
        )
    return _CycField(m, deg, cyclotomic_polynomial(m))


@record
class _CycField:
    m: int
    degree: int
    modulus: tuple[int, ...]  # Phi_m, ascending, monic
    powers: tuple  # zeta^0..zeta^(m-1)
    terms: tuple  # nonzero (i, c) of each power's num
    _computed = ("powers", "terms")  # set by __post_init__; outside ==, hash and repr

    def __post_init__(self):
        m, d = self.m, self.degree
        h = m if m % 2 else m // 2  # zeta^h = -1 when m is even
        powers = [_element(self, [int(i == j) for i in range(d)]) for j in range(min(d, h))]
        for _ in range(d, h):  # zeta^j = zeta * zeta^(j-1), less its top entry times Phi_m
            *low, top = 0, *powers[-1].num
            powers.append(_element(self, [c - top * p for c, p in zip(low, self.modulus)]))
        if h < m:
            powers += [-z for z in powers]
        object.__setattr__(self, "powers", tuple(powers))
        object.__setattr__(self, "terms", tuple(tuple((i, c) for i, c in enumerate(z.num) if c)
                                                for z in powers))

    def __repr__(self):
        return f"Q(zeta_{self.m})"

    def reduce(self, v: list[int]) -> list[int]:
        """Integer coefficients on 1..x^(len-1) mod Phi_m, as `degree` entries:
        v[:degree] plus v[j] zeta^(j mod m), read off the table, for the rest."""
        d = self.degree
        if len(v) <= d:
            return v + [0] * (d - len(v))
        out = v[:d]
        m, terms = self.m, self.terms
        for j in range(d, len(v)):
            c = v[j]
            if c:
                for i, x in terms[j % m]:
                    out[i] += c * x
        return out

    def rotate(self, row, j: int) -> list[int]:
        """zeta^j times an integer row, read off the table of zeta powers:
        one addition per nonzero entry of each power."""
        out = [0] * self.degree
        terms, m = self.terms, self.m
        for i, x in enumerate(row):
            if x:
                for t, y in terms[(i + j) % m]:
                    out[t] += x * y
        return out

    def element(self, coeffs) -> "CycElement":
        cs = list(coeffs)
        den = 1
        if not all(isinstance(c, int) for c in cs):
            cs = [Fraction(c) for c in cs]
            den = lcm(*(c.denominator for c in cs))
            cs = [c.numerator * (den // c.denominator) for c in cs]
        return _element(self, self.reduce(cs), den)

    def power_sum(self, counts) -> "CycElement":
        """sum_j counts[j] * zeta^j for integers counts[j], the reduction of the
        counts.  The sum lies in Z[zeta_m], so den = 1 and the result is
        canonical as built."""
        return _element(self, self.reduce(list(counts)))

    def zero(self) -> "CycElement":
        return self.element([])

    def one(self) -> "CycElement":
        return self.element([1])

    def from_rational(self, q) -> "CycElement":
        return self.element([q])

    def zeta(self, j: int = 1) -> "CycElement":
        """zeta_m ** j, from the field's table of powers."""
        return self.powers[j % self.m]

    def galois_group(self) -> list[int]:
        return [a for a in range(1, self.m + 1) if gcd(a, self.m) == 1]


def _rational(q) -> tuple[int, int] | None:
    """(numerator, denominator) of an int or Fraction, else None."""
    if isinstance(q, int):
        return q, 1
    if isinstance(q, Fraction):
        return q.numerator, q.denominator
    return None


@record
class CycElement:
    """Element num/den of Q(zeta_m); num on 1, zeta, ..., zeta^(deg-1)."""

    __slots__ = ("field", "num", "den")
    field: _CycField
    num: tuple[int, ...]
    den: int

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The power-basis coefficients as Fractions."""
        return tuple(Fraction(c, self.den) for c in self.num)

    # -- basic structure ---------------------------------------------------

    def is_zero(self) -> bool:
        return not any(self.num)

    def is_rational(self) -> bool:
        return not any(self.num[1:])

    def rational_value(self) -> Fraction:
        if not self.is_rational():
            raise DomainError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integral(self) -> bool:
        return self.den == 1

    def denominator(self) -> int:
        return self.den

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
        out = [0] * m
        for i, c in enumerate(self.num):
            out[(i * step) % m] += c
        return _element(target, target.reduce(out), self.den)

    @staticmethod
    def promote(a: "CycElement", b: "CycElement"):
        if a.field.m == b.field.m:
            return a, b
        m = lcm(a.field.m, b.field.m)
        return a.embed(m), b.embed(m)

    # -- ring operations ---------------------------------------------------

    def _add(self, other, sign: int = 1):
        """self + sign * other, sign = 1 or -1, without building sign * other."""
        if isinstance(other, CycElement):
            a, b = (self, other) if self.field is other.field else CycElement.promote(self, other)
            den = lcm(a.den, b.den)
            sa, sb = den // a.den, sign * (den // b.den)
            return _element(a.field, [x * sa + y * sb for x, y in zip(a.num, b.num)], den)
        q = _rational(other)
        if q is None:
            return NotImplemented
        n, d = q
        num = [c * d for c in self.num]
        num[0] += sign * n * self.den
        return _element(self.field, num, self.den * d)

    __add__ = __radd__ = _add

    def __neg__(self):
        return _element(self.field, [-c for c in self.num], self.den)

    def __sub__(self, other):
        return self._add(other, -1)

    def __rsub__(self, other):
        """other - self for a rational other, over one common denominator."""
        q = _rational(other)
        if q is None:
            return NotImplemented
        n, d = q
        num = [-c * d for c in self.num]
        num[0] += n * self.den
        return _element(self.field, num, self.den * d)

    def __mul__(self, other):
        if isinstance(other, CycElement):
            a, b = (self, other) if self.field is other.field else CycElement.promote(self, other)
            return _element(a.field, a.field.reduce(polys.mul(a.num, b.num)), a.den * b.den)
        q = _rational(other)
        if q is None:
            return NotImplemented
        n, d = q
        return _element(self.field, [c * n for c in self.num], self.den * d)

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CycElement):
            a, b = (self, other) if self.field is other.field else CycElement.promote(self, other)
            return a.num == b.num and a.den == b.den
        q = _rational(other)
        if q is None:
            return NotImplemented
        return self.is_rational() and (self.num[0], self.den) == q

    def __hash__(self):
        """The hash of Tr(x)/[K:Q], which `embed` keeps and which is x for a
        rational x, so that the equal values of two fields, and a rational
        element and its int or Fraction, hash alike.  Tr(zeta_m^i)/[K:Q] is
        mu(n)/phi(n) for n = m/gcd(i, m)."""
        m = self.field.m
        trace = sum(c * _mean_conjugate(m // gcd(i, m)) for i, c in enumerate(self.num) if c)
        return hash(Fraction(trace) / self.den)

    # -- Galois action -------------------------------------------------------

    def _galois_num(self, j: int) -> list[int]:
        """The numerator of sigma_j(self), zeta -> zeta^j."""
        m = self.field.m
        out = [0] * m
        for i, c in enumerate(self.num):
            out[(i * j) % m] += c
        return self.field.reduce(out)

    def norm_to_Q(self) -> Fraction:
        """N_{Q(zeta_m)/Q}: the product of all Galois conjugates, whose
        numerator is a rational integer, over den^degree."""
        K, num = self.field, self.num
        for j in K.galois_group()[1:]:
            num = K.reduce(polys.mul(num, self._galois_num(j)))
        return Fraction(num[0], self.den ** K.degree)

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


@lru_cache(maxsize=None)
def _mean_conjugate(n: int) -> Fraction:
    """mu(n)/phi(n), the mean of the primitive n-th roots of unity."""
    exponents = [e for _, e in factor(n)]
    mu = 0 if any(e > 1 for e in exponents) else (-1) ** len(exponents)
    return Fraction(mu, euler_phi(n))


def _element(field: _CycField, num, den: int = 1) -> CycElement:
    """The CycElement num/den of `field`, in canonical form."""
    return CycElement(field, *polys.canonical(num, den))
