"""The F_{q^r} kernels that eiscong.ffield and eiscong.scanner replaced, kept
as a test oracle.

`OracleField` is `FiniteField` with its former `mul` (a list product reduced
mod h with a `% q` at every step).  `roots_in_field` is the former root
search: it evaluates the polynomial at every element of F up to
ENUMERATION_CAP, else takes gcd(f, y^|F| - y) over F and splits it by
Cantor-Zassenhaus.  `reduce_vector` is the former per-coefficient Horner
reduction of the scanner, and `scan_pairs` its former loop over embedding
pairs.  The code is verbatim apart from `F` being an `OracleField`, so every
product in it goes through the old `mul`.
"""

from __future__ import annotations

import random

from eiscong.arith import DomainError
from eiscong.ffield import ENUMERATION_CAP, FiniteField, conway_style_modulus
from eiscong.scanner import CongruenceReport, UnsupportedPrimeError


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


class OracleField(FiniteField):
    """FiniteField whose products take the former list-and-pop path."""

    @staticmethod
    def create(q: int, r: int) -> "OracleField":
        return OracleField(q, r, conway_style_modulus(q, r))

    def mul(self, a, b):
        prod = _polmod(_polmul(list(a), list(b), self.q), list(self.modulus), self.q)
        return tuple(prod + [0] * (self.r - len(prod)))


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
        return sorted(x for x in F.elements() if not any(_fpoly_eval(fp, x, F)))
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
            rhs = reduce_vector(record.coefficient(n), gr, F)
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
