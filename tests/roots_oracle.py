"""The root search that eiscong.ffield.roots_in_field replaced, kept as a
test oracle.

`roots_in_field` takes g = gcd(f, y^|F| - y) over F_q, then evaluates g at
the elements of F in the fixed order while |F| <= ENUMERATION_CAP, and
otherwise splits g into linear factors over F by `_equal_degree_split`
(exponent (|F| - 1)/2, or the trace of c y over F in characteristic 2).  The
code is verbatim, with `_peval`, which the library no longer uses; it runs
on the library's polynomial core over a FiniteField, whose products and
remainders are unchanged.
"""

from __future__ import annotations

import random

from eiscong.arith import DomainError
from eiscong.ffield import (ENUMERATION_CAP, FiniteField, _pdivmod, _pgcd, _pmul,
                            _ppowmod, _psub, _reduce_monic, _trim)


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


def _peval(poly, x, F):
    acc = F.zero()
    for c in reversed(poly):
        acc = F.add(F.mul(acc, x), c)
    return acc
