"""Cusps of X0(N), character divisors, pullbacks, and boundary divisors.

A cusp [a; b] with d = gcd(b, N) and t = gcd(d, N/d) is classified by the
pair (d, a*(b/d) mod t); there are euler_phi(t) cusps of divisor d, each
defined over Q(zeta_t), with ramification index (= width) w = N/(d t).

The two coverings X0(Al) -> X0(A) are pulled back at cusp level, one loop
over the cusps c = [a; b] of X0(Al): pi_(l) is the forgetful map, with image
y = [a; b] and ramification index w(c)/w(y); pi_l acts by a/b -> la/b, with
image y = [la; b] and index gcd(l, b)^2 w(c) / (l w(y)), since the scaling
matrix diag(l, 1) conjugated by the stabilisers of c and y is upper
triangular with diagonal (g, l/g), g = gcd(l, b) (Diamond-Shurman, *A First
Course in Modular Forms*, 3.8; Stein, *Modular Forms: A Computational
Approach*, ch. 8).  This cusp map (c, y, index) depends only on (A, l) and
the covering, so it is built once per process, and a pullback is one lookup
and one product per cusp.  The boundary divisor of E_{phi,M,L} is computed by
running the refinement/scaling/promotion recursion through these pullbacks
starting from D_{Gamma0(f^2),f}(phi) and multiplying the result by
beta_{Gamma0(f^2),phi,1,1}; the closed-form path recomputes it as
beta_{Gamma0(N),phi,M,L} times the multi-sum D_{Gamma0(N),M,L}(phi) of Lemma
`induction2`, and verify_boundary decides whether the two are equal.  The
multi-sum runs over the primes p of N prime to f (l | T1, q | T2 and the
promotion-only t | N/(f^2 M L)), and its alpha/beta/gamma coefficient
tables are one recurrence: a slash step (pi_p^*) up to nu_p(ML), then a
promotion step (pi_(p)^*) up to nu_p(N), run from three start vectors.
These primes are distinct and prime to the f-part, so every
term has its own divisor d and D_{Gamma0(N),M,L}(phi) is a disjoint union
of scaled D-divisors, built as one support dict.

Every beta_{Gamma0(N),phi,M,L} is the core tau(phi^-1) tau(xi^-1)^-1
B2(xi^-1) in Q(zeta_lcm(f,k)), k = order(phi), which phi alone fixes and
which is computed once per phi, times a factor rho: a rational times the
Euler factors (1 - xi(p)/p^2), an element of Q(zeta_order(xi)), a subfield
of Q(zeta_k).  So `beta_constant` is one product in the large field.  The
recursion scales by beta last: every pullback and refinement step is linear
over Q(zeta_m) and beta is nonzero, so the steps run on the coefficients
phi(x) of D_{Gamma0(f^2),f}(phi) in Q(zeta_k), and only the finished
divisor moves into Q(zeta_lcm(f,k)), by one product per cusp with
beta_{Gamma0(f^2),phi,1,1}, which is also computed once per phi.  Both sides
of the theorem carry the same core, a nonzero factor, so verify_boundary
leaves it out: it compares the recursion times rho of (phi, f^2, 1, 1) with
D_{Gamma0(N),M,L}(phi) times rho of (phi, N, M, L), every coefficient in
Q(zeta_k), and gets the verdict and mismatch cusp of the scaled comparison.
The support of D_{Gamma0(N),d}(phi), checked by `_assert_well_defined`, is
computed once per (N, d, phi), and every `D_divisor` call returns a fresh
divisor built from it.  A `Cusp` is the tuple (level, d, x): it hashes and
sorts as that tuple, which keeps the divisors' dict lookups cheap.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache, lru_cache
from itertools import product
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import NamedTuple

from .arith import (DomainError, divisors, euler_phi, factor, is_prime, prime_divisors, record,
                    valuation)
from .characters import DirichletCharacter, bernoulli_B2, gauss_sum, gauss_sum_inverse
from .cyclotomic import CycElement, CyclotomicField
from .eisenstein import EisensteinParams


class DivisorUndefinedError(DomainError):
    """D_{Gamma0(N),d}(phi) needs conductor(phi) | gcd(d, N/d)."""


class Cusp(NamedTuple):
    """Cusp of X0(level) with divisor d and class x in (Z/t)^*, t = gcd(d, N/d).

    A tuple (level, d, x), so it hashes and sorts as that tuple."""

    level: int
    d: int
    x: int

    @property
    def t(self) -> int:
        return gcd(self.d, self.level // self.d)

    def ram_index(self) -> int:
        return self.level // (self.d * self.t)

    def canonical_rep(self) -> tuple[int, int]:
        """Coprime (a, b) with gcd(b, N) = d and a*(b/d) = x mod t."""
        t = self.t
        a = self.x if t > 1 else 1
        while gcd(a, self.d) != 1:
            a += t
        return a, self.d

    def __repr__(self):
        a, b = self.canonical_rep()
        return f"[{a};{b}]@{self.level}"


def cusp_from_fraction(N: int, alpha: int, beta: int) -> Cusp:
    """The cusp class of the fraction alpha/beta (beta = 0 means infinity)."""
    g = gcd(alpha, beta)
    if g:
        alpha, beta = alpha // g, beta // g
    if beta < 0:
        alpha, beta = -alpha, -beta
    if beta == 0:
        return Cusp(N, N, 1)
    d = gcd(beta, N)
    t = gcd(d, N // d)
    if t == 1:
        return Cusp(N, d, 1)
    x = (alpha * (beta // d)) % t
    assert gcd(x, t) == 1
    return Cusp(N, d, x)


def _classes(t: int):
    """The classes x in (Z/t)^*, as 1..t-1 (just 1 when t = 1)."""
    return (x for x in range(1, max(t, 2)) if gcd(x, t) == 1)


@lru_cache(maxsize=None)
def enumerate_cusps(N: int) -> tuple[Cusp, ...]:
    return tuple(Cusp(N, d, x) for d in divisors(N) for x in _classes(gcd(d, N // d)))


def cusp_count(N: int) -> int:
    return sum(euler_phi(gcd(d, N // d)) for d in divisors(N))


# --------------------------------------------------------------- divisors


class CuspDivisor:
    """Finite formal sum of cusps of X0(level) with CycElement coefficients."""

    __slots__ = ("level", "support")

    def __init__(self, level: int, support: dict[Cusp, CycElement] | None = None):
        self.level = level
        self.support = {}
        if support:
            for c, v in support.items():
                if c.level != level:
                    raise DomainError("cusp level mismatch in divisor")
                if not v.is_zero():
                    self.support[c] = v

    def coefficient(self, cusp: Cusp) -> CycElement:
        if cusp in self.support:
            return self.support[cusp]
        return CyclotomicField(1).zero()

    def _combine(self, other: "CuspDivisor", sign: int) -> "CuspDivisor":
        """self + sign * other, sign = 1 or -1, coefficient by coefficient;
        the constructor drops the coefficients that cancel."""
        if self.level != other.level:
            raise DomainError("divisor level mismatch")
        out = dict(self.support)
        for c, v in other.support.items():
            if c in out:
                out[c] = out[c] + v if sign == 1 else out[c] - v
            else:
                out[c] = v if sign == 1 else -v
        return CuspDivisor(self.level, out)

    def __add__(self, other: "CuspDivisor") -> "CuspDivisor":
        return self._combine(other, 1)

    def __sub__(self, other: "CuspDivisor") -> "CuspDivisor":
        return self._combine(other, -1)

    def scale(self, c) -> "CuspDivisor":
        return CuspDivisor(self.level, {k: v * c for k, v in self.support.items()})

    def degree(self) -> CycElement:
        acc = CyclotomicField(1).zero()
        for v in self.support.values():
            acc = acc + v
        return acc

    def __eq__(self, other):
        if not isinstance(other, CuspDivisor) or self.level != other.level:
            return False
        keys = set(self.support) | set(other.support)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    def first_mismatch(self, other: "CuspDivisor"):
        for c in sorted(set(self.support) | set(other.support), key=lambda k: (k.d, k.x)):
            if self.coefficient(c) != other.coefficient(c):
                return c
        return None

    def __repr__(self):
        return f"CuspDivisor({self.level}, {len(self.support)} cusps)"


def D_divisor(N: int, d: int, phi: DirichletCharacter) -> CuspDivisor:
    """D_{Gamma0(N),d}(phi) = sum phi(ab) [a; db] over cusps of divisor d.

    Defined when conductor(phi) | gcd(d, N/d); the coefficient at the class
    (d, x) is phi(x), which `_assert_well_defined` re-derives from
    representative pairs.  The checked support is computed once per
    (N, d, phi), and every call returns a fresh divisor with its own copy.
    """
    return CuspDivisor(N, _D_support(N, d, phi))


@cache
def _D_support(N: int, d: int, phi: DirichletCharacter):
    """The support of D_{Gamma0(N),d}(phi), checked once and read-only."""
    if N % d:
        raise DomainError(f"{d} does not divide {N}")
    t = gcd(d, N // d)
    f = phi.conductor()
    if t % f:
        raise DivisorUndefinedError(
            f"D_(N={N},d={d}) needs conductor {f} | gcd(d, N/d) = {t}"
        )
    phi = phi.primitive_part()
    K = CyclotomicField(phi.order)
    support = {}
    for x in _classes(t):
        e = phi.value_exponent(x)
        assert e is not None
        support[Cusp(N, d, x)] = K.zeta(e)
    _assert_well_defined(N, d, phi, support)
    return MappingProxyType(support)


def _assert_well_defined(N, d, phi, support):
    """phi(a*b) must agree across representative pairs [a; d*b] of each class."""
    t = gcd(d, N // d)
    samples = 0
    for a in range(1, min(N, 3 * t + 4)):
        if gcd(a, d) != 1:
            continue
        for b in range(1, min(N, 2 * t + 2)):
            if gcd(d * b, N) != d or gcd(a, b * d) != 1:
                continue
            cusp = cusp_from_fraction(N, a, d * b)
            val = phi.value(a * b)
            coeff = support.get(cusp)
            if coeff is None:
                assert val.is_zero() or t == 1, "unexpected zero class"
            else:
                assert coeff == val, f"D-divisor coefficient ill-defined at [{a};{d*b}]"
            samples += 1
            if samples > 40:
                return


# --------------------------------------------------------------- pullbacks


def _pullback(D: CuspDivisor, l: int, scaled: bool) -> CuspDivisor:
    """pi^* D over the cusps c = [a; b] of X0(Al): pi_l when `scaled`, else pi_(l)."""
    out = {}
    for c, y, e in _cusp_map(D.level, l, scaled):
        coeff = D.support.get(y)
        if coeff is not None:
            out[c] = coeff * e
    return CuspDivisor(D.level * l, out)


@cache
def _cusp_map(A: int, l: int, scaled: bool):
    """(c, y, e) for every cusp c = [a; b] of X0(Al): its image y in X0(A)
    under pi_l when `scaled`, else pi_(l), and the ramification index e."""
    if not is_prime(l):
        raise DomainError("pullback requires a prime")
    out = []
    for c in enumerate_cusps(A * l):
        a, b = c.canonical_rep()
        y = cusp_from_fraction(A, l * a if scaled else a, b)
        num, den = c.ram_index(), y.ram_index()
        if scaled:  # the conjugated scaling matrix has diagonal (g, l/g), g = gcd(l, b)
            num, den = gcd(l, b) ** 2 * num, l * den
        e, r = divmod(num, den)
        assert r == 0 and e > 0, f"ramification index not a positive integer at {c!r}"
        out.append((c, y, e))
    return tuple(out)


def pullback_pi_paren(D: CuspDivisor, l: int) -> CuspDivisor:
    """pi_(l)^* for the forgetful covering X0(Al) -> X0(A)."""
    return _pullback(D, l, scaled=False)


def pullback_pi_l(D: CuspDivisor, l: int) -> CuspDivisor:
    """pi_l^* for the covering X0(Al) -> X0(A) induced by z -> lz."""
    return _pullback(D, l, scaled=True)


# ----------------------------------------------------- beta and the boundary


@cache
def _beta_core(phi: DirichletCharacter) -> CycElement:
    """tau(phi^-1) tau(xi^-1)^-1 B2(xi^-1) in Q(zeta_lcm(f,k)), xi the primitive
    character of phi^2: the factor of every beta_{Gamma0(N),phi,M,L} that phi
    alone fixes, computed once per phi."""
    xi = (phi * phi).primitive_part()
    m = lcm(phi.modulus, phi.order)
    return (gauss_sum(phi.inverse()).embed(m) * gauss_sum_inverse(xi.inverse()).embed(m)
            * bernoulli_B2(xi.inverse()).embed(m))


def _beta_rho(params: EisensteinParams) -> CycElement:
    """beta_{Gamma0(N),phi,M,L} / _beta_core(phi) in Q(zeta_k), k = order(phi):
    f^3 T1 euler_phi(T2_phi) prod_{p|f} p^(nu_p(M) + delta_p) / (4 cond(xi))
    times the Euler factors (1 - xi(p)/p^2) for p | f T1, all in
    Q(zeta_order(xi)), a subfield of Q(zeta_k)."""
    f, N, M = params.f, params.N, params.M
    xi = params.xi  # primitive, so its conductor is its modulus
    front = Fraction(f ** 3 * params.T1 * euler_phi(params.T2_phi), 4 * xi.modulus)
    for p in prime_divisors(f):
        n_p = valuation(N, p) - 2 * valuation(f, p)
        delta_p = 1 if (valuation(M, p) == 0 and n_p >= 1) else 0
        front *= p ** (valuation(M, p) + delta_p)
    acc = CyclotomicField(xi.order).from_rational(front)
    for p in sorted(set(prime_divisors(f)) | set(prime_divisors(params.T1))):
        acc = acc * (1 - xi.value(p) * Fraction(1, p * p))
    return acc.embed(params.phi.order)


def beta_constant(params: EisensteinParams) -> CycElement:
    """beta_{Gamma0(N),phi,M,L} = _beta_core(phi) * _beta_rho(params), exact
    in Q(zeta_lcm(f,k))."""
    core = _beta_core(params.phi)
    return core * _beta_rho(params).embed(core.field.m)


def beta_tilde(params: EisensteinParams) -> CycElement:
    """beta-tilde = f * T1 * beta; 12*beta-tilde is integral."""
    return beta_constant(params) * (params.f * params.T1)


def _start(phi: DirichletCharacter) -> EisensteinParams:
    """(phi, f^2, 1, 1), whose boundary divisor beta * D_{Gamma0(f^2),f}(phi)
    starts the recursion."""
    f = phi.modulus
    return EisensteinParams(phi, f * f, 1, 1)


@cache
def _start_rho(phi: DirichletCharacter) -> CycElement:
    """_beta_rho of (phi, f^2, 1, 1), computed once per phi."""
    return _beta_rho(_start(phi))


@cache
def _beta_start(phi: DirichletCharacter) -> CycElement:
    """beta_{Gamma0(f^2),phi,1,1}, the scale of the recursion's start
    D_{Gamma0(f^2),f}(phi), computed once per phi."""
    return beta_constant(_start(phi))


def _recursion(params: EisensteinParams) -> CuspDivisor:
    """delta_{Gamma0(N)}(E_{phi,M,L}) / beta_{Gamma0(f^2),phi,1,1}: the pullback
    recursion of the refinement/scaling/promotion construction (proof order)
    run on D_{Gamma0(f^2),f}(phi), with every coefficient in Q(zeta_k)."""
    phi = params.phi
    f, N, M, L = params.f, params.N, params.M, params.L
    D = D_divisor(f * f, f, phi)
    # [l]^+ = pi_(l)^* - (phi(l)/l) pi_l^* for l | T1,
    # [q]^- = pi_(q)^* - phi^{-1}(q) pi_q^* for q | T2
    steps = [(l, phi.value(l) * Fraction(1, l)) for l in prime_divisors(params.T1)]
    steps += [(q, phi.inverse().value(q)) for q in prime_divisors(params.T2)]
    for p, c in steps:
        D = pullback_pi_paren(D, p) - pullback_pi_l(D, p).scale(c)
    for p, e in factor(M * L // (params.T1 * params.T2)):
        for _ in range(e):
            D = pullback_pi_l(D, p)
    for p, e in factor(N // (f * f * M * L)):
        for _ in range(e):
            D = pullback_pi_paren(D, p)
    assert D.level == N
    return D


def boundary_divisor(params: EisensteinParams) -> CuspDivisor:
    """delta_{Gamma0(N)}(E_{phi,M,L}) via the pullback recursion, run in
    Q(zeta_k) and scaled by beta_{Gamma0(f^2),phi,1,1} at the end."""
    return _recursion(params).scale(_beta_start(params.phi))


# -- closed-form path: Lemma `induction2` coefficient recurrences ---------------


def _slash(vec: dict[int, CycElement], n: int, p: int, phi_p: CycElement):
    """One slash pi_p^* at exponent n: a new bottom entry phi(p) vec[0], and
    every entry moves up one, times p above (n + 1) // 2."""
    new = {0: phi_p * vec[0]}
    for j in range(1, len(vec) + 1):
        src = vec[j - 1]
        new[j] = src if j <= (n + 1) // 2 else src * p
    return new


def _promote(vec: dict[int, CycElement], n: int, p: int, top: CycElement | None):
    """One promotion pi_(p)^* at exponent n: entries up to n // 2 times p,
    and a new top entry top * vec[n] unless top is None."""
    new = {i: v * p if i <= n // 2 else v for i, v in vec.items()}
    if top is not None:
        new[n + 1] = top * vec[n]
    return new


def _table(params: EisensteinParams, p: int) -> dict[int, CycElement]:
    """The coefficients at a prime p of N prime to f, by exponent of p in d:
    alpha_{p^{nu_p(N)}, i} for p | T1, beta_{p^{nu_p(N)}, j} for p | T2 (the
    (p-1) factor for p in S_phi lives in the beta constant, not here), and
    gamma_{p^{nu_p(N)}, k} for the promotion-only p | N/(f^2 M L).  Each is
    slashed up to nu_p(ML) and promoted up to nu_p(N) from its start vector."""
    phi = params.phi
    K = CyclotomicField(phi.order)
    phi_p = phi.value(p)
    top = phi_p  # the beta and gamma promotions grow a top entry, alpha's do not
    if params.T1 % p == 0:
        vec, n, top = {0: K.one()}, 1, None
    elif p in params.S_phi:
        vec, n = {0: K.one(), 1: -phi_p}, 1
    elif params.T2 % p == 0:
        vec, n = {0: K.from_rational(p - 1), 1: phi_p - phi.inverse().value(p) * p}, 1
    else:
        vec, n = {0: K.one()}, 0
    nu_ML, nu_N = valuation(params.M * params.L, p), valuation(params.N, p)
    for k in range(n, nu_N):
        vec = _slash(vec, k, p, phi_p) if k < nu_ML else _promote(vec, k, p, top)
    return vec


def D_NML(params: EisensteinParams) -> CuspDivisor:
    """D_{Gamma0(N),M,L}(phi): the multi-sum over divisor exponents with the
    alpha/beta/gamma coefficients (proof ranges; the divisor's f-part is
    f * prod_{p|f} p^{nu_p(M)})."""
    phi = params.phi
    N, f = params.N, params.f
    d_base = f * prod(p ** valuation(params.M, p) for p in prime_divisors(f))
    tables = [(p, _table(params, p)) for p in prime_divisors(N) if f % p]
    one = CyclotomicField(phi.order).one()
    support = {}  # the terms' divisors d differ, so their supports are disjoint
    for term in product(*([(p ** e, v) for e, v in table.items()] for p, table in tables)):
        d, coeff = d_base, one
        for pe, v in term:
            d, coeff = d * pe, coeff * v
        D = D_divisor(N, d, phi)
        support.update((D if coeff == 1 else D.scale(coeff)).support)
    return CuspDivisor(N, support)


def closed_form_boundary(params: EisensteinParams) -> CuspDivisor:
    """beta * D_{Gamma0(N),M,L}(phi), the theorem's closed form."""
    return D_NML(params).scale(beta_constant(params))


@record
class BoundaryReport:
    ok: bool
    level: int
    mismatch_cusp: Cusp | None

    def __bool__(self):
        return self.ok


def verify_boundary(params: EisensteinParams) -> BoundaryReport:
    """Recursion path vs closed-form path; the theorem asserts equality.

    Both paths' betas are _beta_core(phi), a nonzero common factor, times
    their _beta_rho, so the two divisors are compared without it, in
    Q(zeta_k), with the verdict and mismatch cusp of the scaled comparison."""
    lhs = _recursion(params).scale(_start_rho(params.phi))
    rhs = D_NML(params).scale(_beta_rho(params))
    if lhs == rhs:
        return BoundaryReport(True, params.N, None)
    return BoundaryReport(False, params.N, lhs.first_mismatch(rhs))
