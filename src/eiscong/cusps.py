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
the covering, so it is built once per process.

Both boundary divisors are integer rows scaled by one factor.  A
coefficient in Q(zeta_k), k = order(phi), is its numerator on the power
basis, over one denominator for the whole divisor; zeta_k^j times a row is a
rotation read off the field's table of zeta powers.  `_scaled` turns such
rows into a divisor, each row over the denominator times
beta_{Gamma0(f^2),phi,1,1} = `_beta_start(phi)`, the factor of every
beta_{Gamma0(N),phi,M,L} that phi alone fixes.  The rest of beta is sigma
(`_sigma`), a rational times the Euler factors (1 - xi(l)/l^2) at l | T1,
each applied to a row as l^2 row minus the row rotated by xi(l); so
`beta_constant` is `_beta_start(phi)` times sigma.

`boundary_divisor` scales the pullback recursion.  It starts from
D_{Gamma0(f^2),f}(phi), the row zeta_k^e at each cusp (f^2, f, x),
phi(x) = zeta_k^e, and a pullback multiplies each row by its ramification
index.  The refinement [l]^+ = pi_(l)^* - (phi(l)/l) pi_l^* becomes
l pi_(l)^* R minus the rotated pi_l^* R over one more factor l of the
denominator, and [q]^- = pi_(q)^* - phi^-1(q) pi_q^* needs no new factor;
the scaling by ML/(T1 T2) and the promotion to N are pullbacks.

`closed_form_boundary` scales D_{Gamma0(N),M,L}(phi) times sigma, so it is
beta_{Gamma0(N),phi,M,L} D_{Gamma0(N),M,L}(phi) of Lemma `induction2`, a
sum of c_d D_{Gamma0(N),d}(phi).  The multi-sum runs over the primes p of N
prime to f (l | T1, q | T2 and the promotion-only t | N/(f^2 M L)); its
alpha/beta/gamma tables are one recurrence on rows, a slash step (pi_p^*)
up to nu_p(ML), then a promotion step (pi_(p)^*) up to nu_p(N), run from
three start vectors.  These primes are distinct and prime to the f-part, so
each term has its own d, and c_d is one row, a product of one table entry
per prime.  sigma is multiplied into c_d once per divisor class d, and the
product is rotated by phi(x) at each cusp (d, x).

`verify_boundary` compares the two sets of rows before they are scaled,
cusp by cusp in (d, x) order, cross-multiplying the denominators: the
shared factor beta_{Gamma0(f^2),phi,1,1} is nonzero, so the first cusp
that differs is the mismatch of the two divisors, and the check never
computes the Gauss sums.  The exponents of D_{Gamma0(N),d}(phi), checked by
`_assert_well_defined`, are computed once per (N, d, phi).  A `Cusp` is the
tuple (level, d, x): it hashes and sorts as that tuple, which keeps the
divisors' dict lookups cheap.
"""

from __future__ import annotations

from functools import cache, lru_cache
from math import gcd, lcm, prod
from types import MappingProxyType
from typing import NamedTuple

from . import polys
from .arith import (DomainError, divisors, euler_phi, factor, is_prime, prime_divisors, record,
                    valuation)
from .characters import DirichletCharacter, bernoulli_B2, gauss_sum, gauss_sum_inverse
from .cyclotomic import CycElement, CyclotomicField, _canonical
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

    def __eq__(self, other):
        if not isinstance(other, CuspDivisor) or self.level != other.level:
            return False
        keys = set(self.support) | set(other.support)
        return all(self.coefficient(k) == other.coefficient(k) for k in keys)

    def __repr__(self):
        return f"CuspDivisor({self.level}, {len(self.support)} cusps)"


# -------------------------------------------------------------------- rows


@cache
def _D_exponents(N: int, d: int, phi: DirichletCharacter):
    """{cusp (d, x): e} with phi(x) = zeta_k^e, the support of
    D_{Gamma0(N),d}(phi), checked once and read-only."""
    if N % d:
        raise DomainError(f"{d} does not divide {N}")
    t = gcd(d, N // d)
    f = phi.conductor()
    if t % f:
        raise DivisorUndefinedError(
            f"D_(N={N},d={d}) needs conductor {f} | gcd(d, N/d) = {t}"
        )
    phi = phi.primitive_part()
    exps = {}
    for x in _classes(t):
        e = phi.value_exponent(x)
        assert e is not None
        exps[Cusp(N, d, x)] = e
    _assert_well_defined(N, d, phi, exps)
    return MappingProxyType(exps)


def _assert_well_defined(N, d, phi, exps):
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
            val = phi.value_exponent(a * b)
            e = exps.get(cusp)
            if e is None:
                assert val is None or t == 1, "unexpected zero class"
            else:
                assert e == val, f"D-divisor coefficient ill-defined at [{a};{d*b}]"
            samples += 1
            if samples > 40:
                return


# --------------------------------------------------------------- pullbacks


def _pullback(rows: dict, A: int, l: int, scaled: bool) -> dict:
    """pi^* over the cusps c = [a; b] of X0(Al), pi_l when `scaled`, else
    pi_(l), of a divisor of X0(A) given as {cusp: row}: row(c) is row(y)
    times the ramification index e, y the image of c, and is row(y) itself
    when e = 1."""
    out = {}
    for c, y, e in _cusp_map(A, l, scaled):
        row = rows.get(y)
        if row is not None:
            out[c] = row if e == 1 else [e * x for x in row]
    return out


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


# ----------------------------------------------------- beta and the boundary


def _euler(K, row, factors) -> tuple[list[int], int]:
    """row times the Euler factors (1 - xi(p)/p^2), as an integer row of
    Q(zeta_k) and its denominator prod p^2, for (p, j) in `factors` with
    xi(p) = zeta_k^j, or 0 when j is None: each factor is p^2 row minus the
    row rotated by j."""
    den = 1
    for p, j in factors:
        pp = p * p
        if j is None:
            row = [pp * x for x in row]
        else:
            row = [pp * x - y for x, y in zip(row, K.rotate(row, j))]
        den *= pp
    return row, den


@cache
def _beta_start(phi: DirichletCharacter) -> CycElement:
    """beta_{Gamma0(f^2),phi,1,1} = tau(phi^-1) tau(xi^-1)^-1 B2(xi^-1)
    f^3 / (4 cond(xi)) prod_{p|f} (1 - xi(p)/p^2) in Q(zeta_lcm(f,k)), xi
    the primitive character of phi^2: the factor of every
    beta_{Gamma0(N),phi,M,L} that phi alone fixes, computed once per phi."""
    f, xi = phi.modulus, phi.power(2).primitive_part()  # xi primitive: cond(xi) = its modulus
    K = CyclotomicField(phi.order)
    step = K.m // xi.order  # xi(p) = zeta_order(xi)^e = zeta_k^(e step)
    row, den = _euler(K, [f ** 3] + [0] * (K.degree - 1),
                      [(p, None if (e := xi.value_exponent(p)) is None else e * step)
                       for p in prime_divisors(f)])
    m = lcm(f, phi.order)
    return (gauss_sum(phi.inverse()).embed(m) * gauss_sum_inverse(xi.inverse()).embed(m)
            * bernoulli_B2(xi.inverse()).embed(m) * _canonical(K, row, den * 4 * xi.modulus))


def _sigma(params: EisensteinParams) -> tuple[list[int], int]:
    """beta_{Gamma0(N),phi,M,L} / _beta_start(phi), as an integer row of
    Q(zeta_k) and its denominator: T1 euler_phi(T2_phi)
    prod_{p|f} p^(nu_p(M) + delta_p) times the Euler factors at l | T1,
    where xi(l) = phi(l)^2 as l is prime to f."""
    phi, f, N, M = params.phi, params.f, params.N, params.M
    T1 = params.T1
    scale = T1 * euler_phi(params.T2_phi)
    for p in prime_divisors(f):
        n_p = valuation(N, p) - 2 * valuation(f, p)
        delta_p = 1 if (valuation(M, p) == 0 and n_p >= 1) else 0
        scale *= p ** (valuation(M, p) + delta_p)
    K = CyclotomicField(phi.order)
    row = [scale] + [0] * (K.degree - 1)
    return _euler(K, row, [(l, 2 * phi.value_exponent(l)) for l in prime_divisors(T1)])


def beta_constant(params: EisensteinParams) -> CycElement:
    """beta_{Gamma0(N),phi,M,L} = _beta_start(phi) * sigma, exact in
    Q(zeta_lcm(f,k))."""
    return _beta_start(params.phi) * _canonical(CyclotomicField(params.phi.order),
                                                *_sigma(params))


def beta_tilde(params: EisensteinParams) -> CycElement:
    """beta-tilde = f * T1 * beta; 12*beta-tilde is integral."""
    return beta_constant(params) * (params.f * params.T1)


def _scaled(params: EisensteinParams, den: int, rows: dict) -> CuspDivisor:
    """The divisor of X0(N) with coefficient row / den times
    beta_{Gamma0(f^2),phi,1,1} at each cusp of `rows`, {cusp: integer row
    of Q(zeta_k)}."""
    K, beta = CyclotomicField(params.phi.order), _beta_start(params.phi)
    return CuspDivisor(params.N, {c: _canonical(K, row, den) * beta for c, row in rows.items()})


def _recursion(params: EisensteinParams) -> tuple[int, dict]:
    """delta_{Gamma0(N)}(E_{phi,M,L}) / beta_{Gamma0(f^2),phi,1,1} as (den,
    {cusp: integer row of Q(zeta_k)}), its nonzero coefficients: the
    pullback recursion of the refinement/scaling/promotion construction
    (proof order) run on D_{Gamma0(f^2),f}(phi)."""
    phi, T1, T2 = params.phi, params.T1, params.T2
    f, N, M, L = params.f, params.N, params.M, params.L
    K = CyclotomicField(phi.order)
    A, den = f * f, 1
    rows = {c: K.zeta(e).num for c, e in _D_exponents(A, f, phi).items()}
    # [l]^+ = pi_(l)^* - (phi(l)/l) pi_l^* for l | T1, over one more factor l,
    # [q]^- = pi_(q)^* - phi^{-1}(q) pi_q^* for q | T2: u pi_(p)^* R - zeta^j pi_p^* R
    steps = [(l, l, phi.value_exponent(l)) for l in prime_divisors(T1)]
    steps += [(q, 1, -phi.value_exponent(q)) for q in prime_divisors(T2)]
    for p, u, j in steps:
        turned = {y: K.rotate(row, j) for y, row in rows.items()}
        rows = {c: row if u == 1 else [u * x for x in row]
                for c, row in _pullback(rows, A, p, False).items()}
        for c, row in _pullback(turned, A, p, True).items():
            base = rows.get(c)
            rows[c] = [-x for x in row] if base is None else [a - b for a, b in zip(base, row)]
        A, den = A * p, den * u
    for p, e in factor(M * L // (T1 * T2)):
        for _ in range(e):
            rows, A = _pullback(rows, A, p, True), A * p
    for p, e in factor(N // (f * f * M * L)):
        for _ in range(e):
            rows, A = _pullback(rows, A, p, False), A * p
    assert A == N
    return den, {c: row for c, row in rows.items() if any(row)}


def boundary_divisor(params: EisensteinParams) -> CuspDivisor:
    """delta_{Gamma0(N)}(E_{phi,M,L}): the pullback recursion's rows, scaled."""
    return _scaled(params, *_recursion(params))


# -- closed-form path: Lemma `induction2` coefficient recurrences ---------------


def _slash(K, vec: list, n: int, p: int, j: int) -> list:
    """One slash pi_p^* at exponent n: a new bottom entry phi(p) vec[0],
    phi(p) = zeta^j, and every entry moves up one, times p above (n + 1) // 2."""
    return [K.rotate(vec[0], j)] + [
        v if i <= (n + 1) // 2 else [p * x for x in v] for i, v in enumerate(vec, 1)]


def _promote(K, vec: list, n: int, p: int, j: int | None) -> list:
    """One promotion pi_(p)^* at exponent n: entries up to n // 2 times p,
    and a new top entry zeta^j vec[n] unless j is None."""
    new = [[p * x for x in v] if i <= n // 2 else v for i, v in enumerate(vec)]
    if j is not None:
        new.append(K.rotate(vec[n], j))
    return new


def _table(params: EisensteinParams, p: int) -> list:
    """The coefficients at a prime p of N prime to f, as integer rows of
    Q(zeta_k) indexed by the exponent of p in d: alpha_{p^{nu_p(N)}, i} for
    p | T1, beta_{p^{nu_p(N)}, j} for p | T2 (the (p-1) factor for p in
    S_phi lives in the beta constant, not here), and gamma_{p^{nu_p(N)}, k}
    for the promotion-only p | N/(f^2 M L).  Each is slashed up to
    nu_p(ML) and promoted up to nu_p(N) from its start vector."""
    phi = params.phi
    K = CyclotomicField(phi.order)
    j = phi.value_exponent(p)  # phi(p) = zeta^j
    one, phi_p = K.zeta(0).num, K.zeta(j).num
    top = j  # the beta and gamma promotions grow a top entry, alpha's do not
    if params.T1 % p == 0:
        vec, n, top = [one], 1, None
    elif p in params.S_phi:
        vec, n = [one, [-x for x in phi_p]], 1
    elif params.T2 % p == 0:
        vec, n = [[p - 1] + [0] * (K.degree - 1),
                  [x - p * y for x, y in zip(phi_p, K.zeta(-j).num)]], 1
    else:
        vec, n = [one], 0
    nu_ML, nu_N = valuation(params.M * params.L, p), valuation(params.N, p)
    for k in range(n, nu_N):
        vec = _slash(K, vec, k, p, j) if k < nu_ML else _promote(K, vec, k, p, top)
    return vec


def _D_terms(params: EisensteinParams) -> list[tuple[int, list[int]]]:
    """D_{Gamma0(N),M,L}(phi) = sum_d c_d D_{Gamma0(N),d}(phi) as the pairs
    (d, c_d), c_d an integer row of Q(zeta_k): the multi-sum over divisor
    exponents with the alpha/beta/gamma coefficients (proof ranges; the
    divisor's f-part is f * prod_{p|f} p^{nu_p(M)}).  The primes are
    distinct, so every term has its own d."""
    K = CyclotomicField(params.phi.order)
    f, one = params.f, K.zeta(0).num
    terms = [(f * prod(p ** valuation(params.M, p) for p in prime_divisors(f)), one)]
    for p in prime_divisors(params.N):
        if f % p:
            table = _table(params, p)
            terms = [(d * p ** e, v if c is one else K.reduce(polys.mul(c, v)))
                     for d, c in terms for e, v in enumerate(table)]
    return terms


def _closed_rows(params: EisensteinParams) -> tuple[int, dict]:
    """D_{Gamma0(N),M,L}(phi) times _sigma(params) as (den, {cusp: integer
    row of Q(zeta_k)}): c_d times sigma once per divisor d, then rotated by
    phi(x) = zeta^e at each cusp (d, x)."""
    K = CyclotomicField(params.phi.order)
    srow, den = _sigma(params)
    rows = {}
    for d, c in _D_terms(params):
        scaled = K.reduce(polys.mul(c, srow))
        for cusp, e in _D_exponents(params.N, d, params.phi).items():
            rows[cusp] = K.rotate(scaled, e)
    return den, rows


def closed_form_boundary(params: EisensteinParams) -> CuspDivisor:
    """beta * D_{Gamma0(N),M,L}(phi), the theorem's closed form: the rows of
    D_{Gamma0(N),M,L}(phi) times sigma, scaled."""
    return _scaled(params, *_closed_rows(params))


@record
class BoundaryReport:
    ok: bool
    level: int
    mismatch_cusp: Cusp | None

    def __bool__(self):
        return self.ok


def verify_boundary(params: EisensteinParams) -> BoundaryReport:
    """Recursion path vs closed-form path; the theorem asserts equality.

    boundary_divisor and closed_form_boundary are the rows of
    _recursion and _closed_rows, each scaled by the same nonzero
    beta_{Gamma0(f^2),phi,1,1}.  So the two agree at a cusp exactly when
    the rows there agree, which is compared cusp by cusp over the two
    denominators, in (d, x) order; the first cusp that differs is the
    mismatch."""
    den, lhs = _recursion(params)
    sden, rhs = _closed_rows(params)
    zero = [0] * CyclotomicField(params.phi.order).degree
    for c in enumerate_cusps(params.N):
        a, b = lhs.get(c), rhs.get(c)
        if (a is not None or b is not None) and \
                [x * sden for x in a or zero] != [y * den for y in b or zero]:
            return BoundaryReport(False, params.N, c)
    return BoundaryReport(True, params.N, None)
