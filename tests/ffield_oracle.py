"""The F_{q^r} kernels that eiscong.ffield and eiscong.scanner replaced, kept
as a test oracle.

`OracleField` is `FiniteField` with its former `mul` (a list product reduced
mod h with a `% q` at every step) and its former `inv` (an extended Euclid in
F_q[x]).  `conway_style_modulus` and `factor_degrees_mod_q` are the former
searches on the integer-list polynomial core over F_q (`_polmul`, `_polmod`,
`_polpowmod`, `_polgcd`, `_poldiv_exact`).  `roots_in_field` is the former
root search: it evaluates the polynomial at every element of F up to
ENUMERATION_CAP, else takes gcd(f, y^|F| - y) over F and splits it by
Cantor-Zassenhaus.  `reduce_vector` is the former per-coefficient Horner
reduction of the scanner, and `scan_pairs` its former loop over embedding
pairs.  The code is verbatim apart from `F` being an `OracleField`, so every
product in it goes through the old `mul`, and from `OracleField.create`
taking the modulus from this module's search.  Its Rabin test
`_irreducible_modq` calls every linear polynomial reducible; the search
never asks it at r = 1, and the library now tests irreducibility by the
degree of the first factor of the distinct-degree split.
`multiplicative_order` and `elements` are the former
`FiniteField.multiplicative_order` and `FiniteField.elements`, which only
tests called.

`roots_by_gcd`, `_one_root` and `_distinct_degree` are the root search that
`roots_in_field` replaced, verbatim apart from the name of the first: it
takes g = gcd(f, y^|F| - y) over F_q, splits g by distinct and equal degree
(the `top` of `_distinct_degree` promises that every factor's degree divides
r) and finds each factor's root orbit with full powers in F.  Its splitting
steps `_probe` and `_equal_degree` are copied verbatim from the library, so
that a change there cannot reach the oracle.  `FermatField`
is `FiniteField` with its former inverse a^(|F| - 2); passed to
`roots_by_gcd`, it takes every inverse the former way.
"""

from __future__ import annotations

import random
from functools import lru_cache

from eiscong.arith import DomainError, is_prime, prime_divisors
from eiscong.ffield import (ENUMERATION_CAP, FiniteField, _pdivmod, _pgcd, _pmul, _ppowmod,
                            _psub, _reduce_monic, _trim)
from eiscong.scanner import CongruenceReport, UnsupportedPrimeError
from helpers import newform_coefficient


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


class OracleField(FiniteField):
    """FiniteField whose products and inverses take the former paths."""

    @staticmethod
    def create(q: int, r: int) -> "OracleField":
        return OracleField(q, r, conway_style_modulus(q, r))

    def mul(self, a, b):
        prod = _polmod(_polmul(list(a), list(b), self.q), list(self.modulus), self.q)
        return tuple(prod + [0] * (self.r - len(prod)))

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


def reduce_int_poly(poly, F: FiniteField):
    """Integer polynomial -> list of F-elements (ascending)."""
    out = [F.from_int(int(c)) for c in poly]
    while out and not any(out[-1]):
        out.pop()
    return out


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
    """All roots in F of an integer polynomial (each distinct root once)."""
    F = OracleField(F.q, F.r, F.modulus)
    fp = reduce_int_poly(int_poly, F)
    if not fp:
        raise DomainError("polynomial vanishes identically mod q")
    if len(fp) == 1:
        return []
    if F.size <= ENUMERATION_CAP and not force_splitting:
        return sorted(x for x in elements(F) if not any(_fpoly_eval(fp, x, F)))
    # split off the linear factors: g = gcd(f, y^{|F|} - y)
    yq = _fpoly_powmod([F.zero(), F.one()], F.size, fp, F)
    diff = [F.sub(a, b) for a, b in _pad(yq, [F.zero(), F.one()], F)]
    while diff and not any(diff[-1]):
        diff.pop()
    g = _fpoly_gcd(fp, diff, F)
    roots = []
    _equal_degree_split(g, F, roots, random.Random(0x5EED))
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


def reduce_vector(vec, root, F: FiniteField):
    """sum vec[i] * root^i with Fraction entries; q | denominator is an error."""
    F = OracleField(F.q, F.r, F.modulus)
    q = F.q
    acc = F.zero()
    power = F.one()
    for c in vec:
        if c.denominator % q == 0:
            raise UnsupportedPrimeError(f"denominator of {c} not invertible mod {q}")
        cf = F.from_int(c.numerator * pow(c.denominator, -1, q))
        acc = F.add(acc, F.mul(cf, power))
        power = F.mul(power, root)
    return acc


def scan_pairs(E, params, record, q, B, r, F, pairs) -> CongruenceReport:
    """The former pair loop of `scanner.scan`, given its embeddings."""
    first_mismatch = None
    for zr, gr in pairs:
        ok = True
        for n in range(1, B + 1):
            lhs = reduce_vector(E.coefficient(n).coeffs, zr, F)
            rhs = reduce_vector(newform_coefficient(record, n), gr, F)
            if lhs != rhs:
                ok = False
                if first_mismatch is None:
                    first_mismatch = n
                break
        if ok:
            return CongruenceReport(
                params.label(), record.label, q, r, (zr, gr), B, True, None
            )
    return CongruenceReport(
        params.label(), record.label, q, r, pairs[0], B, False, first_mismatch
    )


def elements(F: FiniteField):
    """The elements of F in the fixed order, refused above ENUMERATION_CAP:
    the n-th is the tuple of the base-q digits of n, least significant first."""
    if F.size > ENUMERATION_CAP:
        raise DomainError("field too large to enumerate")
    return (tuple(n // F.q ** i % F.q for i in range(F.r)) for n in range(F.size))


def multiplicative_order(F: FiniteField, a) -> int:
    """The order of the nonzero a in the multiplicative group of F."""
    if not any(a):
        raise DomainError("0 has no multiplicative order")
    order = F.size - 1
    for p in prime_divisors(order):
        while order % p == 0 and F.pow(a, order // p) == F.one():
            order //= p
    return order


class FermatField(FiniteField):
    """FiniteField whose inverse is a^(|F| - 2)."""

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0 in finite field")
        if self.r == 1:
            return (pow(a[0], -1, self.q),)
        return self.pow(a, self.size - 2)


def roots_by_gcd(int_poly, F: FiniteField):
    """All roots in F of an integer polynomial (each distinct root once), sorted."""
    Fq = FiniteField(F.q, 1, (0, 1))
    fp = _reduce_monic(int_poly, Fq)
    if not fp:
        raise DomainError("polynomial vanishes identically mod q")
    y = [Fq.zero(), Fq.one()]
    g = _pgcd(fp, _psub(_ppowmod(y, F.size, fp, Fq), y, Fq), Fq)
    rng = random.Random(0x5EED)
    roots = []
    for e, ge in _distinct_degree(g, Fq, F.r):
        for u in _equal_degree(ge, e, Fq, rng):
            orbit = [_one_root(u, e, F, rng)]
            while len(orbit) < e:
                orbit.append(F.pow(orbit[-1], F.q))
            roots += orbit
    return sorted(roots)


def _probe(a, g, e, F):
    """a^((q^e-1)/2) - 1 mod g, or sum_{i<e} a^(2^i) mod g when q = 2."""
    if F.q == 2:
        power = h = _pdivmod(a, g, F)[1]
        for _ in range(e - 1):
            power = _pdivmod(_pmul(power, power, F), g, F)[1]
            h = _psub(h, power, F)  # h + power in characteristic 2
        return h
    return _psub(_ppowmod(a, (F.q ** e - 1) // 2, g, F), [F.one()], F)


def _equal_degree(g, e, Fq, rng):
    """The irreducible factors over F_q of g, a product of distinct ones of degree e."""
    if len(g) - 1 == e:
        return [g]
    while True:
        a = _trim([Fq.from_int(rng.randrange(Fq.q)) for _ in range(len(g) - 1)])
        d = _pgcd(g, _probe(a, g, e, Fq), Fq)
        if 1 < len(d) < len(g):
            return (_equal_degree(d, e, Fq, rng)
                    + _equal_degree(_pdivmod(g, d, Fq)[0], e, Fq, rng))


def _one_root(u, e, F, rng):
    """One root in F of u, irreducible of degree e over F_q (see the module notes)."""
    Fq = FiniteField(F.q, 1, (0, 1))
    frob = [[Fq.zero(), Fq.one()]]  # y^(q^i) mod u, i < e
    for _ in range(e - 1):
        frob.append(_ppowmod(frob[-1], F.q, u, Fq))
    u, *frob = ([F.from_int(c[0]) for c in p] for p in (u, *frob))
    while len(u) > 2:
        # c = Tr_{F/F_{q^e}}(z): a c in F_q cannot separate conjugate roots
        z = c = tuple(rng.randrange(F.q) for _ in range(F.r))
        for _ in range(F.r // e - 1):
            z = F.pow(z, F.q ** e)
            c = F.add(c, z)
        a = [] if F.q == 2 else [F.one()]  # the trace of c y, or the norm of y + c
        for i, y_i in enumerate(frob):
            c = F.pow(c, F.q) if i else c
            if F.q == 2:
                a = _psub(a, [F.mul(c, x) for x in y_i], F)
            else:
                a = _pdivmod(_pmul(a, _psub(y_i, [F.neg(c)], F), F), u, F)[1]
        d = _pgcd(u, _probe(a, u, 1, F), F)
        if 1 < len(d) < len(u):
            u = min(d, _pdivmod(u, d, F)[0], key=len)
            frob = [_pdivmod(y_i, u, F)[1] for y_i in frob]
    return F.neg(u[0])


def _distinct_degree(f, Fq, top=None):
    """[(e, f_e)], f_e the product of the distinct irreducible factors of
    degree e of the monic f over F_q: gcd(y^{q^e} - y, f) once every copy of
    the factors of lower degree is divided out, so f need not be squarefree.
    A given `top` promises that every factor's degree divides it."""
    power = y = [Fq.zero(), Fq.one()]
    out, e = [], 0
    while len(f) > 1:
        e += 1
        if 2 * e > len(f) - 1 or e == top:  # f is irreducible, or of degree-top factors
            out.append((top if e == top else len(f) - 1, f))
            break
        power = _ppowmod(power, Fq.q, f, Fq)
        d = _pgcd(_psub(power, y, Fq), f, Fq)
        if len(d) > 1:
            out.append((e, d))
            while len(d) > 1:
                f = _pdivmod(f, d, Fq)[0]
                d = _pgcd(f, d, Fq)
    return out
