"""Former `ideals` code kept as test oracles.

`s2_set` takes the B2 norm of every nontrivial character mod p, one by one:
the library now takes one norm per Galois orbit.  `render` and its helpers
are the former T_r relation renderer, verbatim but for `render`, which was
the method `TrClassGroup.render`: the library now renders a term in one
function."""

from __future__ import annotations

from math import isqrt

from eiscong.arith import DomainError, prime_divisors, valuation
from eiscong.characters import bernoulli_B2, enumerate_characters


def b2_norm(phi, p: int):
    """N_{Q(phi)/Q}(6 p B2(xi^{-1})), xi the primitive part of phi^2."""
    xi = phi.power(2).primitive_part()
    return (bernoulli_B2(xi.inverse()).embed(phi.order) * (6 * p)).norm_to_Q()


def s2_set(N: int, p: int) -> frozenset[int]:
    """Primes s | N_{Q(phi)/Q}(6 p B2(xi^{-1})), over nontrivial phi mod p."""
    if valuation(N, p) < 2:
        raise DomainError(f"s2_set needs p^2 | N (p={p}, N={N})")
    out = set()
    for phi in enumerate_characters(p):
        if phi.is_trivial():
            continue
        nrm = b2_norm(phi, p)
        assert nrm.denominator == 1 and nrm != 0
        out.update(prime_divisors(abs(int(nrm))))
    return frozenset(out)


def render(classes, degree, poly) -> str:
    xterm = "T_r" if degree == 1 else f"T_r^{degree}"
    body = _render_bivariate(poly, degree)
    return "{" + xterm + body + " : r = " + ", ".join(map(str, classes)) + "}"


def _render_bivariate(poly, degree) -> str:
    """Render sum_{i<degree} (poly-in-r)_i X^i appended after the X^degree term."""
    # perfect-square prettification: X^2 + (a + b r)^2
    if degree == 2 and len(poly) >= 1 and all(
        not any(poly[i]) for i in range(1, min(2, len(poly)))
    ):
        c = list(poly[0]) + [0] * (3 - len(poly[0]))
        c0, c1, c2 = c[0], c[1], c[2]
        if c2 > 0 and c0 > 0 and c1 * c1 == 4 * c0 * c2:
            b2 = _isqrt(c2)
            a2 = _isqrt(c0)
            if b2 is not None and a2 is not None:
                rt = "r" if b2 == 1 else f"{b2}*r"
                return f" + ({a2} {'+' if c1 > 0 else '-'} {rt})^2"
    parts = []
    for i in range(len(poly) - 1, -1, -1):
        if i >= degree:
            continue
        for t, s in _render_poly_in_r_power(poly[i], i):
            parts.append((t, s))
    out = ""
    for t, s in parts:
        out += (" + " if s > 0 else " - ") + t
    return out


def _render_poly_in_r_power(coeffs, xpow) -> list[tuple[str, int]]:
    xs = "" if xpow == 0 else ("*T_r" if xpow == 1 else f"*T_r^{xpow}")
    out = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            t = f"{mag}{xs}" if (mag != 1 or xpow == 0) else xs.lstrip("*")
        elif j == 1:
            rt = "r" if mag == 1 else f"{mag}*r"
            t = rt + xs
        else:
            rt = f"r^{j}" if mag == 1 else f"{mag}*r^{j}"
            t = rt + xs
        out.append((t, 1 if c > 0 else -1))
    return out


def _isqrt(n: int):
    r = isqrt(max(n, 0))
    return r if r * r == n else None
