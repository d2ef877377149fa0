"""Dense polynomial helpers with ascending coefficients.

Only ring operations are used, so the same code serves integer polynomials
(the cyclotomic kernel) and Fraction polynomials (newform fields).  Division
is by monic polynomials only, which keeps integer inputs in Z.

`canonical` fixes the one coefficient format of the package: integer
power-basis numerators over one denominator, (num, den) with den > 0 and
gcd(den, content(num)) = 1 (the design of FLINT's fmpq_poly).  Elements of
Q(zeta_m), q-expansion coefficients and newform coefficients are all stored
so, and equal values have equal pairs.
"""

from __future__ import annotations

from math import gcd

Poly = list  # ascending coefficients; [] is the zero polynomial


def canonical(num, den: int) -> tuple[tuple[int, ...], int]:
    """num/den as (num, den) with den > 0 and gcd(den, content(num)) = 1;
    den = 1 needs no gcd, since it is canonical whatever num is."""
    if den != 1:
        g = gcd(den, *num)
        if den < 0:
            g = -g
        if g != 1:
            return tuple([c // g for c in num]), den // g
    return tuple(num), den


def mul(f: Poly, g: Poly) -> Poly:
    """f * g, len(f) + len(g) - 1 coefficients (no trimming)."""
    if not f or not g:
        return []
    if f.count(0) < g.count(0):
        f, g = g, f  # loop over the sparser factor
    n = len(g)
    out = [0] * (len(f) + n - 1)
    for i, a in enumerate(f):
        if a:
            out[i:i + n] = [o + a * b for o, b in zip(out[i:i + n], g)]
    return out


def divmod_monic(f: Poly, g: Poly) -> tuple[Poly, Poly]:
    """(q, r) with f = q*g + r and len(r) = len(g) - 1, for monic g."""
    d = len(g) - 1
    r = list(f) + [0] * max(0, d - len(f))
    q = [0] * max(0, len(f) - d)
    low = g[:d]
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            s = i - d
            q[s] = c
            r[s:i] = [x - c * y for x, y in zip(r[s:i], low)]
    del r[d:]
    return q, r
