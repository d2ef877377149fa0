"""F_{q^r} arithmetic and root finding for reduction maps mod primes above q.

The field is realized as F_q[x]/(h) with h the lexicographically smallest
monic irreducible of degree r (a fixed, bundled, Conway-style choice, so
element representations are reproducible).  A product is a schoolbook
product into 2r - 1 integers, folded down by the monic h, with one `% q` at
the end.  An inverse is a^(|F| - 2) by Fermat's little theorem, and
pow(a, -1, q) when r = 1.

Polynomials over a field F are lists of F-elements, ascending, with no zero
leading coefficient.  One set of functions serves every such F: F_q itself
is the r = 1 case FiniteField(q, 1, (0, 1)), whose elements are 1-tuples.
Division is by monic divisors only.  Inputs are made monic once, on entry,
and the gcd makes each remainder monic before dividing by it.

Roots of an integer polynomial f start from g = gcd(f mod q, y^|F| - y),
computed over F_q: g is the product of (y - x) over the distinct roots x of
f in F, so deg g counts them and deg g <= 0 means there are none.  When
|F| <= 2^16 the roots are found by evaluating g at the elements in a fixed
order until deg g of them are found; above that g is split by equal-degree
(Cantor-Zassenhaus) splitting, with (y + c)^((|F|-1)/2) - 1 in odd
characteristic and the trace sum_i (c y)^(2^i) in characteristic 2 (Cohen,
GTM 138, 3.4; von zur Gathen-Gerhard, ch. 14).

Roots of Phi_k need no search.  With k = q^a k' and q not dividing k',
Phi_k = Phi_k'^phi(q^a) mod q, so the roots are the elements of exact
order k': z^j with gcd(j, k') = 1 for one such z, and z = g^((|F|-1)/k') for
the first g in the fixed element order that gives exact order k'.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import zip_longest
from math import gcd

from .arith import DomainError, is_prime, prime_divisors

ENUMERATION_CAP = 1 << 16


@dataclass(frozen=True)
class FiniteField:
    """F_{q^r} as F_q[x]/(h); elements are int tuples of length r."""

    q: int
    r: int
    modulus: tuple[int, ...]

    @staticmethod
    def create(q: int, r: int) -> "FiniteField":
        return FiniteField(q, r, conway_style_modulus(q, r))

    @property
    def size(self) -> int:
        return self.q ** self.r

    def zero(self):
        return (0,) * self.r

    def one(self):
        return tuple([1] + [0] * (self.r - 1))

    def from_int(self, n: int):
        return tuple([n % self.q] + [0] * (self.r - 1))

    def add(self, a, b):
        if self.r == 1:
            return ((a[0] + b[0]) % self.q,)
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.r == 1:
            return ((a[0] - b[0]) % self.q,)
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.q for x in a)

    def mul(self, a, b):
        q, r = self.q, self.r
        if r == 1:
            return (a[0] * b[0] % q,)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        h = self.modulus
        for top in range(2 * r - 2, r - 1, -1):
            c = prod[top]
            if c:
                off = top - r
                for i in range(r):
                    prod[off + i] -= c * h[i]
        return tuple(x % q for x in prod[:r])

    def pow(self, a, e: int):
        if e < 0:
            return self.pow(self.inv(a), -e)
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0 in finite field")
        if self.r == 1:
            return (pow(a[0], -1, self.q),)
        return self.pow(a, self.size - 2)

    def elements(self):
        if self.size > ENUMERATION_CAP:
            raise DomainError("field too large to enumerate")
        return map(self.element, range(self.size))

    def element(self, n: int):
        """The n-th element in the fixed order: the base-q digits of n."""
        vec = []
        for _ in range(self.r):
            n, c = divmod(n, self.q)
            vec.append(c)
        return tuple(vec)

    def multiplicative_order(self, a) -> int:
        if not any(a):
            raise DomainError("0 has no multiplicative order")
        order = self.size - 1
        for p in prime_divisors(order):
            while order % p == 0 and self.pow(a, order // p) == self.one():
                order //= p
        return order


# ------------------------------------------------- polynomials over a field F


def _trim(a):
    while a and not any(a[-1]):
        a.pop()
    return a


def _monic(a, F):
    if not a or a[-1] == F.one():
        return a
    inv = F.inv(a[-1])
    return [F.mul(c, inv) for c in a]


def _pmul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def _psub(a, b, F):
    return _trim([F.sub(x, y) for x, y in zip_longest(a, b, fillvalue=F.zero())])


def _pdivmod(a, m, F):
    """(quotient, remainder) of a by the monic m."""
    d = len(m) - 1
    rem = list(a)
    quo = [F.zero()] * max(0, len(rem) - d)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if any(c):
            off = top - d
            quo[off] = c
            for i in range(d):
                rem[off + i] = F.sub(rem[off + i], F.mul(c, m[i]))
    return _trim(quo), _trim(rem[:d])


def _pgcd(a, b, F):
    """The monic gcd of a and b."""
    while b:
        b = _monic(b, F)
        a, b = b, _pdivmod(a, b, F)[1]
    return _monic(a, F)


def _ppowmod(a, e, m, F):
    """a^e mod the monic m."""
    result = [F.one()]
    base = _pdivmod(a, m, F)[1]
    while e:
        if e & 1:
            result = _pdivmod(_pmul(result, base, F), m, F)[1]
        base = _pdivmod(_pmul(base, base, F), m, F)[1]
        e >>= 1
    return result


def _peval(poly, x, F):
    acc = F.zero()
    for c in reversed(poly):
        acc = F.add(F.mul(acc, x), c)
    return acc


def _reduce_monic(int_poly, Fq):
    """An integer polynomial mod q, made monic; [] if it vanishes mod q."""
    return _monic(_trim([Fq.from_int(int(c)) for c in int_poly]), Fq)


def _irreducible_modq(h, q):
    """h monic over F_q irreducible iff x^{q^r} = x mod h and the subfield
    conditions gcd(x^{q^{r/s}} - x, h) = 1 hold for primes s | r."""
    Fq = FiniteField(q, 1, (0, 1))
    h = [(c,) for c in h]
    r = len(h) - 1
    x = [(0,), (1,)]
    if _ppowmod(x, q ** r, h, Fq) != x:
        return False
    return all(
        len(_pgcd(_psub(_ppowmod(x, q ** (r // s), h, Fq), x, Fq), h, Fq)) == 1
        for s in prime_divisors(r)
    )


@lru_cache(maxsize=None)
def conway_style_modulus(q: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_q."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if r == 1:
        return (0, 1)
    # iterate constant-first tuples in lexicographic order
    for total in range(q ** r):
        coeffs = []
        t = total
        for _ in range(r):
            coeffs.append(t % q)
            t //= q
        h = coeffs + [1]
        if h[0] == 0:
            continue
        if _irreducible_modq(h, q):
            return tuple(h)
    raise ArithmeticError("no irreducible polynomial found")


def roots_in_field(int_poly, F: FiniteField, force_splitting: bool = False):
    """All roots in F of an integer polynomial (each distinct root once), sorted."""
    Fq = FiniteField(F.q, 1, (0, 1))
    fp = _reduce_monic(int_poly, Fq)
    if not fp:
        raise DomainError("polynomial vanishes identically mod q")
    if len(fp) == 1:
        return []
    # g = gcd(f, y^{|F|} - y) over F_q: the product of (y - x) over the roots x in F
    y = [Fq.zero(), Fq.one()]
    g = _pgcd(fp, _psub(_ppowmod(y, F.size, fp, Fq), y, Fq), Fq)
    g = [F.from_int(c[0]) for c in g]
    count = len(g) - 1
    roots = []
    if count <= 0:
        return roots
    if F.size <= ENUMERATION_CAP and not force_splitting:
        for x in F.elements():
            if not any(_peval(g, x, F)):
                roots.append(x)
                if len(roots) == count:
                    break
    else:
        _equal_degree_split(g, F, roots, random.Random(0x5EED))
    return sorted(roots)


def cyclotomic_roots(k: int, F: FiniteField):
    """The roots of Phi_k in F, sorted, without a search (see the module notes)."""
    kp = k
    while kp % F.q == 0:
        kp //= F.q
    n = F.size - 1
    if n % kp:
        return []
    one = F.one()
    primes = prime_divisors(kp)
    for i in range(1, F.size):
        z = F.pow(F.element(i), n // kp)
        if all(F.pow(z, kp // s) != one for s in primes):
            break
    roots = []
    power = one
    for j in range(1, kp + 1):
        power = F.mul(power, z)
        if gcd(j, kp) == 1:
            roots.append(power)
    return sorted(roots)


def _equal_degree_split(g, F, roots, rng):
    """g monic splits into distinct linear factors over F; collect the roots."""
    if len(g) <= 1:
        return
    if len(g) == 2:
        # monic y + c -> root -c
        roots.append(F.neg(g[0]))
        return
    while True:
        c = tuple(rng.randrange(F.q) for _ in range(F.r))
        if F.q == 2:
            # trace of c*y, sum_{i<r} (c y)^(2^i): it is 0 or 1 at each root
            power = h = _trim([F.zero(), c])
            for _ in range(F.r - 1):
                power = _pdivmod(_pmul(power, power, F), g, F)[1]
                h = _psub(h, power, F)  # h + power in characteristic 2
        else:
            h = _psub(_ppowmod([c, F.one()], (F.size - 1) // 2, g, F), [F.one()], F)
        d = _pgcd(g, h, F)
        if 1 < len(d) < len(g):
            _equal_degree_split(d, F, roots, rng)
            _equal_degree_split(_pdivmod(g, d, F)[0], F, roots, rng)
            return


def finite_field_roots(int_poly, q: int, r: int, force_splitting: bool = False):
    """Spec surface: all roots of the integer polynomial in F_{q^r}."""
    F = FiniteField.create(q, r)
    return roots_in_field(int_poly, F, force_splitting=force_splitting)


def factor_degrees_mod_q(int_poly, q: int) -> list[int]:
    """Degrees of the irreducible factors of f / gcd(f, f') mod q, ascending."""
    Fq = FiniteField(q, 1, (0, 1))
    fp = _reduce_monic(int_poly, Fq)
    if len(fp) <= 1:
        raise DomainError("polynomial is constant mod q")
    deriv = _trim([Fq.from_int(i * fp[i][0]) for i in range(1, len(fp))])
    work = _pdivmod(fp, _pgcd(fp, deriv, Fq), Fq)[0]
    # distinct-degree factoring: gcd(y^{q^e} - y, work) is the product of
    # the factors of degree e once those of lower degree are divided out
    y = [Fq.zero(), Fq.one()]
    degrees = []
    e = 0
    while len(work) > 2:
        e += 1
        d = _pgcd(_psub(_ppowmod(y, q ** e, work, Fq), y, Fq), work, Fq)
        if len(d) > 1:
            degrees.extend([e] * ((len(d) - 1) // e))
            work = _pdivmod(work, d, Fq)[0]
    if len(work) == 2:
        degrees.append(1)
    return degrees
