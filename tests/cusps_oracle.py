"""The beta constant and D_{Gamma0(N),M,L}(phi) that eiscong.cusps replaced,
kept as a test oracle.

`beta_constant` computes the Gauss-sum factor tau(phi^-1) tau(xi^-1)^-1
B2(xi^-1) anew on every call, where the library computes it once per phi;
`D_NML` scales every D-divisor of the multi-sum, also when its coefficient
is 1.  The code is verbatim; the coefficient tables,
`D_divisor` and `CuspDivisor` are the library's, which this change left as
they were.  `gamma0_equivalent`, the classical criterion for two cusps to
be Gamma0(N)-equivalent, is the oracle for the (d, x) classifier
`cusp_from_fraction`, which the Manin-symbol boundary map now uses too.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from eiscong.arith import euler_phi, prime_divisors, valuation, xgcd
from eiscong.characters import bernoulli_B2, gauss_sum, gauss_sum_inverse
from eiscong.cusps import (CuspDivisor, D_divisor, _alpha_table, _beta_table,
                           _gamma_table)
from eiscong.cyclotomic import CycElement, CyclotomicField
from eiscong.eisenstein import EisensteinParams


def beta_constant(params: EisensteinParams) -> CycElement:
    """beta_{Gamma0(N),phi,M,L}, exact in Q(zeta_lcm(f,k))."""
    phi = params.phi
    f, N, M = params.f, params.N, params.M
    xi = params.xi
    n = xi.conductor()
    K = params.field()
    m = K.m
    front = Fraction(f ** 3 * params.T1 * euler_phi(params.T2_phi), 4 * n)
    acc = K.from_rational(front)
    for p in prime_divisors(f):
        n_p = valuation(N, p) - 2 * valuation(f, p)
        delta_p = 1 if (valuation(M, p) == 0 and n_p >= 1) else 0
        acc = acc * p ** (valuation(M, p) + delta_p)
    acc = acc * gauss_sum(phi.inverse()).embed(m) * gauss_sum_inverse(xi.inverse()).embed(m)
    acc = acc * bernoulli_B2(xi.inverse()).embed(m)
    for p in sorted(set(prime_divisors(f)) | set(prime_divisors(params.T1))):
        acc = acc * (1 - xi.value(p).embed(m) * Fraction(1, p * p))
    return acc


def D_NML(params: EisensteinParams) -> CuspDivisor:
    """D_{Gamma0(N),M,L}(phi): the multi-sum over divisor exponents with the
    alpha/beta/gamma coefficients (proof ranges; the divisor's f-part is
    f * prod_{p|f} p^{nu_p(M)})."""
    phi = params.phi
    N, f = params.N, params.f
    d_base = f * prod(p ** valuation(params.M, p) for p in prime_divisors(f))
    tables = []
    for l in prime_divisors(params.T1) if params.T1 > 1 else ():
        tables.append((l, _alpha_table(params, l)))
    for q in prime_divisors(params.T2) if params.T2 > 1 else ():
        tables.append((q, _beta_table(params, q)))
    rest = N // (f * f * params.M * params.L)
    for t in prime_divisors(rest) if rest > 1 else ():
        if gcd(t, f * params.M * params.L) == 1:
            tables.append((t, _gamma_table(params, t)))
    K = CyclotomicField(phi.order)
    total = CuspDivisor(N)
    def rec(i, d, coeff):
        nonlocal total
        if i == len(tables):
            total = total + D_divisor(N, d, phi).scale(coeff)
            return
        p, table = tables[i]
        for e, v in table.items():
            rec(i + 1, d * p ** e, coeff * v)
    rec(0, d_base, K.one())
    return total


def closed_form_boundary(params: EisensteinParams) -> CuspDivisor:
    """beta * D_{Gamma0(N),M,L}(phi), the theorem's closed form."""
    return D_NML(params).scale(beta_constant(params))


def gamma0_equivalent(N: int, frac1: tuple[int, int], frac2: tuple[int, int]) -> bool:
    """Gamma0(N)-equivalence of the cusps u1/v1 and u2/v2 (Cremona Prop. 8.13),
    independent of the (d, x) representatives."""

    def normalize(u, v):
        g = gcd(u, v)
        if g:
            u, v = u // g, v // g
        if v < 0:
            u, v = -u, -v
        return u, v

    def inv_mod(u, v):
        if v in (0, 1):
            return 1
        g, s, _ = xgcd(u, v)
        return s % v

    (u1, v1), (u2, v2) = normalize(*frac1), normalize(*frac2)
    s1, s2 = inv_mod(u1, v1), inv_mod(u2, v2)
    m = gcd(v1 * v2, N)
    if m == 0:
        m = N
    return (s1 * v2 - s2 * v1) % m == 0
