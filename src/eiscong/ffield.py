"""F_{q^r} arithmetic and root finding for reduction maps mod primes above q.

The field is realized as F_q[x]/(h) with h the lexicographically smallest
monic irreducible of degree r (a fixed, bundled, Conway-style choice, so
element representations are reproducible).  A product is a schoolbook
product into 2r - 1 integers, folded down by the monic h, with one `% q` at
the end.

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
from math import gcd

from .arith import DomainError, is_prime, prime_divisors

ENUMERATION_CAP = 1 << 16


def _polmul(a, b, q):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % q
    while out and out[-1] == 0:
        out.pop()
    return out


def _polmod(a, m, q):
    a = list(a)
    dm = len(m) - 1
    inv = pow(m[-1], -1, q)
    while len(a) > dm:
        c = a[-1] * inv % q
        if c:
            off = len(a) - 1 - dm
            for i in range(dm + 1):
                a[off + i] = (a[off + i] - c * m[i]) % q
        a.pop()
    while a and a[-1] == 0:
        a.pop()
    return a


def _polpowmod(a, e, m, q):
    result = [1]
    base = _polmod(a, m, q)
    while e:
        if e & 1:
            result = _polmod(_polmul(result, base, q), m, q)
        base = _polmod(_polmul(base, base, q), m, q)
        e >>= 1
    return result


def _polgcd(a, b, q):
    a, b = list(a), list(b)
    while b:
        a = _polmod(a, b, q) if len(a) >= len(b) else a
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, a
        b = _polmod(b, a, q)
    if a:
        inv = pow(a[-1], -1, q)
        a = [x * inv % q for x in a]
    return a


def _irreducible_modq(h, q):
    """h monic over F_q irreducible iff x^{q^r} = x mod h and the subfield
    conditions gcd(x^{q^{r/s}} - x, h) = 1 hold for primes s | r."""
    r = len(h) - 1
    xq = _polpowmod([0, 1], q ** r, h, q)
    if xq != [0, 1]:
        return False
    rr = r
    s = 2
    primes = set()
    while s * s <= rr:
        if rr % s == 0:
            primes.add(s)
            while rr % s == 0:
                rr //= s
        s += 1
    if rr > 1:
        primes.add(rr)
    for s in primes:
        xs = _polpowmod([0, 1], q ** (r // s), h, q)
        diff = _polmod([(a - b) % q for a, b in _zip_pad(xs, [0, 1])], h, q)
        if len(_polgcd(diff, h, q)) != 1:
            return False
    return True


def _zip_pad(a, b):
    n = max(len(a), len(b))
    return [((a[i] if i < len(a) else 0), (b[i] if i < len(b) else 0)) for i in range(n)]


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
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
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
        # extended Euclid in F_q[x]
        r0, r1 = list(self.modulus), [x for x in a]
        while r1 and r1[-1] == 0:
            r1.pop()
        t0, t1 = [], [1]
        q = self.q
        while r1:
            if len(r0) < len(r1):
                r0, r1, t0, t1 = r1, r0, t1, t0
                continue
            # quotient of r0 by r1
            quo = [0] * (len(r0) - len(r1) + 1)
            rem = list(r0)
            inv_lead = pow(r1[-1], -1, q)
            for d in range(len(r0) - len(r1), -1, -1):
                if len(rem) < len(r1) + d:
                    continue
                c = rem[len(r1) + d - 1] * inv_lead % q
                if c:
                    quo[d] = c
                    for i in range(len(r1)):
                        rem[d + i] = (rem[d + i] - c * r1[i]) % q
                while rem and rem[-1] == 0:
                    rem.pop()
            r0, r1 = r1, rem
            t0, t1 = t1, [(x - y) % q for x, y in _zip_pad(t0, _polmul(quo, t1, q))]
            while t1 and t1[-1] == 0:
                t1.pop()
        assert len(r0) == 1
        c = pow(r0[0], -1, q)
        out = [x * c % q for x in t0]
        return tuple(out + [0] * (self.r - len(out)))

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
        n = self.size - 1
        order = n
        m = n
        p = 2
        while p * p <= m:
            if m % p == 0:
                while m % p == 0:
                    m //= p
                while order % p == 0 and self.pow(a, order // p) == self.one():
                    order //= p
            p += 1
        if m > 1:
            p = m
            while order % p == 0 and self.pow(a, order // p) == self.one():
                order //= p
        return order


def _fpoly_mul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    while out and not any(out[-1]):
        out.pop()
    return out


def _fpoly_mod(a, m, F):
    a = list(a)
    dm = len(m) - 1
    inv = F.inv(m[-1])
    while len(a) > dm:
        c = F.mul(a[-1], inv)
        if any(c):
            off = len(a) - 1 - dm
            for i in range(dm + 1):
                a[off + i] = F.sub(a[off + i], F.mul(c, m[i]))
        a.pop()
    while a and not any(a[-1]):
        a.pop()
    return a


def _fpoly_gcd(a, b, F):
    a, b = list(a), list(b)
    while b:
        if len(a) < len(b):
            a, b = b, a
            continue
        a, b = b, _fpoly_mod(a, b, F)
    if a:
        inv = F.inv(a[-1])
        a = [F.mul(x, inv) for x in a]
    return a


def _fpoly_powmod(a, e, m, F):
    result = [F.one()]
    base = _fpoly_mod(a, m, F)
    while e:
        if e & 1:
            result = _fpoly_mod(_fpoly_mul(result, base, F), m, F)
        base = _fpoly_mod(_fpoly_mul(base, base, F), m, F)
        e >>= 1
    return result


def _fpoly_eval(poly, x, F):
    acc = F.zero()
    for c in reversed(poly):
        acc = F.add(F.mul(acc, x), c)
    return acc


def roots_in_field(int_poly, F: FiniteField, force_splitting: bool = False):
    """All roots in F of an integer polynomial (each distinct root once), sorted."""
    q = F.q
    fp = [int(c) % q for c in int_poly]
    while fp and fp[-1] == 0:
        fp.pop()
    if not fp:
        raise DomainError("polynomial vanishes identically mod q")
    if len(fp) == 1:
        return []
    # g = gcd(f, y^{|F|} - y) over F_q: the product of (y - x) over the roots x in F
    yq = _polpowmod([0, 1], F.size, fp, q)
    diff = [(a - b) % q for a, b in _zip_pad(yq, [0, 1])]
    while diff and diff[-1] == 0:
        diff.pop()
    g = [F.from_int(c) for c in _polgcd(fp, diff, q)]
    count = len(g) - 1
    roots = []
    if count <= 0:
        return roots
    if F.size <= ENUMERATION_CAP and not force_splitting:
        for x in F.elements():
            if not any(_fpoly_eval(g, x, F)):
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


def _pad(a, b, F):
    n = max(len(a), len(b))
    za = list(a) + [F.zero()] * (n - len(a))
    zb = list(b) + [F.zero()] * (n - len(b))
    return list(zip(za, zb))


def _equal_degree_split(g, F, roots, rng):
    """g splits into distinct linear factors over F; collect the roots."""
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
            power = h = _fpoly_mod([F.zero(), c], g, F)
            for _ in range(F.r - 1):
                power = _fpoly_mod(_fpoly_mul(power, power, F), g, F)
                h = [F.add(a, b) for a, b in _pad(h, power, F)]
        else:
            probe = [c, F.one()]  # y + c
            h = _fpoly_powmod(probe, (F.size - 1) // 2, g, F)
            h = [F.sub(a, b) for a, b in _pad(h, [F.one()], F)]
        while h and not any(h[-1]):
            h.pop()
        d = _fpoly_gcd(g, h, F) if h else []
        if 1 < len(d) < len(g):
            q1, r1 = _fpoly_divmod(g, d, F)
            assert not r1
            _equal_degree_split(d, F, roots, rng)
            _equal_degree_split(q1, F, roots, rng)
            return


def _fpoly_divmod(a, b, F):
    a = list(a)
    q = [F.zero()] * max(0, len(a) - len(b) + 1)
    inv = F.inv(b[-1])
    while len(a) >= len(b) and a:
        if not any(a[-1]):
            a.pop()
            continue
        c = F.mul(a[-1], inv)
        d = len(a) - len(b)
        q[d] = c
        for i in range(len(b)):
            a[d + i] = F.sub(a[d + i], F.mul(c, b[i]))
        a.pop()
    while a and not any(a[-1]):
        a.pop()
    return q, a


def finite_field_roots(int_poly, q: int, r: int, force_splitting: bool = False):
    """Spec surface: all roots of the integer polynomial in F_{q^r}."""
    F = FiniteField.create(q, r)
    return roots_in_field(int_poly, F, force_splitting=force_splitting)


def factor_degrees_mod_q(int_poly, q: int) -> list[int]:
    """Degrees of the irreducible factors of the squarefree part mod q."""
    fp = [int(c) % q for c in int_poly]
    while fp and fp[-1] == 0:
        fp.pop()
    if len(fp) <= 1:
        raise DomainError("polynomial is constant mod q")
    # squarefree part: f / gcd(f, f')
    deriv = [(i * fp[i]) % q for i in range(1, len(fp))]
    while deriv and deriv[-1] == 0:
        deriv.pop()
    g = _polgcd(fp, deriv, q) if deriv else fp
    if len(g) > 1:
        sf = _poldiv_exact(fp, g, q)
    else:
        sf = fp
    degrees = []
    work = list(sf)
    e = 0
    while len(work) > 2:
        e += 1
        xqe = _polpowmod([0, 1], q ** e, work, q)
        diff = _polmod([(a - b) % q for a, b in _zip_pad(xqe, [0, 1])], work, q)
        d = _polgcd(diff, work, q) if diff else work
        if len(d) > 1:
            degrees.extend([e] * ((len(d) - 1) // e))
            work = _poldiv_exact(work, d, q)
    if len(work) == 2:
        degrees.append(1)
    elif len(work) > 2:
        degrees.append(len(work) - 1)
    return sorted(degrees)


def _poldiv_exact(a, b, q):
    out = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    inv = pow(b[-1], -1, q)
    for d in range(len(a) - len(b), -1, -1):
        c = rem[len(b) + d - 1] * inv % q
        out[d] = c
        if c:
            for i in range(len(b)):
                rem[d + i] = (rem[d + i] - c * b[i]) % q
    assert all(x == 0 for x in rem[: len(b) - 1])
    return out
