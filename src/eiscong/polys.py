"""Minimal dense polynomial arithmetic over Fraction (ascending coefficients).

Internal helper for the cyclotomic kernel; no external polynomial package is
needed at these degrees (<= 200).
"""

from __future__ import annotations

from fractions import Fraction

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
