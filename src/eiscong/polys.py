"""Dense polynomial helpers with ascending coefficients.

Only ring operations are used, so the same code serves integer polynomials
(the cyclotomic kernel) and Fraction polynomials (newform fields).  Division
is by monic polynomials only, which keeps integer inputs in Z.
"""

from __future__ import annotations

Poly = list  # ascending coefficients; [] is the zero polynomial


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
