"""Code that scripts/make_newform_fixtures.py replaced, kept as test oracles.

`rref` is the script's former reduced row echelon form over Q by
Gauss-Jordan elimination in Fractions; the script now solves with
`eiscong.lattices.solve`, which scales each row to integers and eliminates
with the fraction-free `eiscong.lattices.echelon`.
`an_vectors` is the former `Orbit.an_vectors`, which built a table of
a_{p^k} and multiplied the prime-power parts of every n; the script now
runs one recursion over n.  The code is verbatim, but for the docstring of
`an_vectors` and its `self`, which is now the argument `orbit`.
"""

from __future__ import annotations

from fractions import Fraction

from eiscong import polys
from eiscong.arith import prime_divisors


def rref(rows):
    """Reduced row echelon form over Q: (nonzero rows, their pivot columns).

    This is the one dense Gauss-Jordan elimination in the script; the
    solves below read its output.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def an_vectors(orbit, bound):
    """a_n for n=1..bound in the generator power basis (Fraction vectors):
    a table of a_{p^k} by the Hecke recurrence, then the product of the
    prime-power parts of each n."""
    g = orbit.field_poly  # monic, so products reduce by divmod_monic
    one = [Fraction(1)] + [Fraction(0)] * (orbit.dim - 1)
    an = {1: one}
    N = orbit.level
    for p, ap in sorted(orbit.ap.items()):
        if p > bound:
            continue
        pk = p
        prev2, prev1 = one, ap
        an[p] = ap
        k = 1
        while pk * p <= bound:
            pk *= p
            k += 1
            if N % p == 0:
                cur = polys.divmod_monic(polys.mul(prev1, ap), g)[1]
            else:
                apa = polys.divmod_monic(polys.mul(ap, prev1), g)[1]
                cur = [a - p * b for a, b in zip(apa, prev2)]
            an[pk] = cur
            prev2, prev1 = prev1, cur
    out = [None] * (bound + 1)
    out[1] = one
    for n in range(2, bound + 1):
        m = n
        acc = one
        ok = True
        for p in prime_divisors(n):
            pk = 1
            while m % p == 0:
                m //= p
                pk *= p
            if pk not in an:
                ok = False
                break
            acc = polys.divmod_monic(polys.mul(acc, an[pk]), g)[1]
        if not ok:
            raise RuntimeError(f"missing a_p for n={n}")
        out[n] = acc
    return out[1:]
