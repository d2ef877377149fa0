"""The beta constant, D_{Gamma0(N),M,L}(phi) and the two pullbacks that
eiscong.cusps replaced, kept as a test oracle.

`beta_constant` computes the Gauss-sum factor tau(phi^-1) tau(xi^-1)^-1
B2(xi^-1) anew on every call, where the library computes it once per phi;
`D_NML` adds up the multi-sum recursively, one divisor copy per term, and
scales every D-divisor, also when its coefficient is 1.  Its alpha, beta
and gamma tables are the former `_alpha_table`, `_beta_table` and
`_gamma_table`, which write the slash and promotion recurrences out once
per table, where the library runs one `_slash` and one `_promote` step from
three start vectors.  The code is verbatim apart from its divisor
arithmetic: `CuspDivisor` is the library's, while `D_divisor` and the
module functions `add`, `sub`, `scale`, `degree` and `first_mismatch` are
the former library function and `CuspDivisor` methods, which only tests
used.  The library's closed form has no D_{Gamma0(N),M,L}(phi) of its own:
it scales the rows of D_{Gamma0(N),M,L}(phi) times sigma.
`gamma0_equivalent`, the classical criterion for two cusps to be
Gamma0(N)-equivalent, is the oracle for the (d, x) classifier
`cusp_from_fraction`, which the Manin-symbol boundary map now uses too.

`boundary_divisor` is the former recursion, verbatim: it scales
D_{Gamma0(f^2),f}(phi) by beta_{Gamma0(f^2),phi,1,1} first and pulls the
scaled divisor back in Q(zeta_lcm(f,k)), where the library pulls back the
unscaled divisor in Q(zeta_k) and scales once at the end.  Its names
resolve to this module's `beta_constant` and pullbacks.

`verify_boundary` is the former check, verbatim: it compares the two scaled
divisors, boundary_divisor and closed_form_boundary, in Q(zeta_lcm(f,k)),
where the library compares them without their common Gauss-sum core in
Q(zeta_k).  Its names resolve to this module's two paths.

`pullback_pi_paren` and `pullback_pi_l` (with `_forget` and
`_stabilizing_matrix`) are the former pullbacks, verbatim with their
asserts: pi_l's ramification index comes from the scaling matrix
diag(l, 1) conjugated by two SL2(Z) matrices that stabilise the cusps, in
Fractions, where the library now uses the closed form
gcd(l, b)^2 w(c) / (l w(y)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, prod

from eiscong.arith import (DomainError, euler_phi, factor, is_prime, prime_divisors,
                          valuation, xgcd)
from eiscong.characters import bernoulli_B2, gauss_sum, gauss_sum_inverse
from eiscong.characters import DirichletCharacter
from eiscong.cusps import (BoundaryReport, Cusp, CuspDivisor, _D_exponents, cusp_from_fraction,
                           enumerate_cusps)
from eiscong.cyclotomic import CycElement, CyclotomicField
from eiscong.eisenstein import EisensteinParams


def D_divisor(N: int, d: int, phi: DirichletCharacter) -> CuspDivisor:
    """D_{Gamma0(N),d}(phi) = sum phi(ab) [a; db] over cusps of divisor d.

    Defined when conductor(phi) | gcd(d, N/d); the coefficient at the class
    (d, x) is phi(x), which the library's `_assert_well_defined` re-derives
    from representative pairs.  The checked exponents are computed once per
    (N, d, phi), and every call returns a fresh divisor with its own copy.
    """
    K = CyclotomicField(phi.order)
    return CuspDivisor(N, {c: K.zeta(e) for c, e in _D_exponents(N, d, phi).items()})


def _combine(a: CuspDivisor, b: CuspDivisor, sign: int) -> CuspDivisor:
    """a + sign * b, sign = 1 or -1, coefficient by coefficient; the
    constructor drops the coefficients that cancel."""
    if a.level != b.level:
        raise DomainError("divisor level mismatch")
    out = dict(a.support)
    for c, v in b.support.items():
        if c in out:
            out[c] = out[c] + v if sign == 1 else out[c] - v
        else:
            out[c] = v if sign == 1 else -v
    return CuspDivisor(a.level, out)


def add(a: CuspDivisor, b: CuspDivisor) -> CuspDivisor:
    return _combine(a, b, 1)


def sub(a: CuspDivisor, b: CuspDivisor) -> CuspDivisor:
    return _combine(a, b, -1)


def scale(D: CuspDivisor, c) -> CuspDivisor:
    return CuspDivisor(D.level, {k: v * c for k, v in D.support.items()})


def degree(D: CuspDivisor) -> CycElement:
    acc = CyclotomicField(1).zero()
    for v in D.support.values():
        acc = acc + v
    return acc


def first_mismatch(a: CuspDivisor, b: CuspDivisor):
    """The first cusp in (d, x) order where a and b differ, or None."""
    for c in sorted(set(a.support) | set(b.support), key=lambda k: (k.d, k.x)):
        if a.coefficient(c) != b.coefficient(c):
            return c
    return None


def beta_constant(params: EisensteinParams) -> CycElement:
    """beta_{Gamma0(N),phi,M,L}, exact in Q(zeta_lcm(f,k))."""
    phi = params.phi
    f, N, M = params.f, params.N, params.M
    xi = phi.power(2).primitive_part()
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


def _alpha_table(params: EisensteinParams, l: int) -> dict[int, CycElement]:
    """alpha_{l^{nu_l(N)}, i} for i = 0..nu_l(M)-1 (primes l | T1)."""
    phi = params.phi
    K = CyclotomicField(phi.order)
    nu_M = valuation(params.M, l)
    nu_N = valuation(params.N, l)
    vec = {0: K.one()}
    n = 1
    while n < nu_M:  # slashing pi_l^*
        new = {0: phi.value(l) * vec[0]}
        for j in range(1, n + 1):
            src = vec[j - 1]
            new[j] = src if j <= (n + 1) // 2 else src * l
        vec, n = new, n + 1
    while n < nu_N:  # promotion pi_(l)^*
        new = {}
        for i, v in vec.items():
            new[i] = v * l if i <= n // 2 else v
        vec, n = new, n + 1
    return vec


def _beta_table(params: EisensteinParams, q: int) -> dict[int, CycElement]:
    """beta_{q^{nu_q(N)}, j} for j = 0..nu_q(N) (primes q | T2); the (q-1)
    factor for q in S_phi lives in the beta constant, not here."""
    phi = params.phi
    K = CyclotomicField(phi.order)
    nu_L = valuation(params.L, q)
    nu_N = valuation(params.N, q)
    if q in params.S_phi:
        vec = {0: K.one(), 1: -phi.value(q)}
    else:
        vec = {0: K.from_rational(q - 1), 1: phi.value(q) - phi.inverse().value(q) * q}
    n = 1
    while n < nu_L:  # slashing pi_q^*
        new = {0: phi.value(q) * vec[0]}
        for j in range(1, n + 2):
            src = vec[j - 1]
            new[j] = src if j <= (n + 1) // 2 else src * q
        vec, n = new, n + 1
    while n < nu_N:  # promotion pi_(q)^*
        new = {}
        for i in range(n + 1):
            v = vec[i]
            new[i] = v * q if i <= n // 2 else v
        new[n + 1] = phi.value(q) * vec[n]
        vec, n = new, n + 1
    return vec


def _gamma_table(params: EisensteinParams, t: int) -> dict[int, CycElement]:
    """gamma_{t^{nu_t(N)}, k} for the promotion-only primes t | N/(f^2 M L)."""
    phi = params.phi
    K = CyclotomicField(phi.order)
    nu_N = valuation(params.N, t)
    vec = {0: K.one()}
    n = 0
    while n < nu_N:
        new = {}
        for i in range(n + 1):
            v = vec[i]
            new[i] = v * t if i <= n // 2 else v
        new[n + 1] = phi.value(t) * vec[n]
        vec, n = new, n + 1
    return vec


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
            total = add(total, scale(D_divisor(N, d, phi), coeff))
            return
        p, table = tables[i]
        for e, v in table.items():
            rec(i + 1, d * p ** e, coeff * v)
    rec(0, d_base, K.one())
    return total


def closed_form_boundary(params: EisensteinParams) -> CuspDivisor:
    """beta * D_{Gamma0(N),M,L}(phi), the theorem's closed form."""
    return scale(D_NML(params), beta_constant(params))


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


def _forget(cusp: Cusp, A: int) -> Cusp:
    a, b = cusp.canonical_rep()
    return cusp_from_fraction(A, a, b)


def pullback_pi_paren(D: CuspDivisor, l: int) -> CuspDivisor:
    """pi_(l)^* for the forgetful covering X0(Al) -> X0(A)."""
    if not is_prime(l):
        raise DomainError("pullback requires a prime")
    A = D.level
    out = {}
    for c in enumerate_cusps(A * l):
        y = _forget(c, A)
        coeff = D.support.get(y)
        if coeff is None:
            continue
        e = Fraction(c.ram_index(), y.ram_index())
        assert e.denominator == 1 and e > 0
        out[c] = coeff * int(e)
    return CuspDivisor(A * l, out)


def _stabilizing_matrix(alpha: int, beta: int):
    """delta in SL2(Z) with delta(alpha/beta) = infinity."""
    g, p, q = xgcd(alpha, beta)
    assert g == 1
    return ((p, q), (-beta, alpha))


def pullback_pi_l(D: CuspDivisor, l: int) -> CuspDivisor:
    """pi_l^* for the covering X0(Al) -> X0(A) induced by z -> lz."""
    if not is_prime(l):
        raise DomainError("pullback requires a prime")
    A = D.level
    out = {}
    for c in enumerate_cusps(A * l):
        a, b = c.canonical_rep()
        ia, ib = l * a, b
        g = gcd(ia, ib)
        ia, ib = ia // g, ib // g
        y = cusp_from_fraction(A, ia, ib)
        coeff = D.support.get(y)
        if coeff is None:
            continue
        dx = _stabilizing_matrix(a, b)
        dy = _stabilizing_matrix(ia, ib)
        # B = dy * diag(l, 1) * dx^{-1}; dx^{-1} = [[b_22, -q],[beta, p]] form
        (p, q), (mb, al) = dx
        dx_inv = ((al, -q), (-mb, p))
        m11 = dy[0][0] * l * dx_inv[0][0] + dy[0][1] * dx_inv[1][0]
        m21 = dy[1][0] * l * dx_inv[0][0] + dy[1][1] * dx_inv[1][0]
        m22 = dy[1][0] * l * dx_inv[0][1] + dy[1][1] * dx_inv[1][1]
        assert m21 == 0, "conjugated scaling matrix must fix infinity"
        e = Fraction(abs(m11), abs(m22)) * Fraction(c.ram_index(), y.ram_index())
        assert e.denominator == 1 and e > 0, f"pi_l ramification not integral: {e}"
        out[c] = coeff * int(e)
    return CuspDivisor(A * l, out)


def boundary_divisor(params: EisensteinParams) -> CuspDivisor:
    """delta_{Gamma0(N)}(E_{phi,M,L}) via the pullback recursion of the
    refinement/scaling/promotion construction (proof order)."""
    phi = params.phi
    f, N, M, L = params.f, params.N, params.M, params.L
    D = scale(D_divisor(f * f, f, phi), beta_constant(EisensteinParams(phi, f * f, 1, 1)))
    # [l]^+ = pi_(l)^* - (phi(l)/l) pi_l^* for l | T1,
    # [q]^- = pi_(q)^* - phi^{-1}(q) pi_q^* for q | T2
    steps = [(l, phi.value(l) * Fraction(1, l)) for l in prime_divisors(params.T1)]
    steps += [(q, phi.inverse().value(q)) for q in prime_divisors(params.T2)]
    for p, c in steps:
        D = sub(pullback_pi_paren(D, p), scale(pullback_pi_l(D, p), c))
    for p, e in factor(M * L // (params.T1 * params.T2)):
        for _ in range(e):
            D = pullback_pi_l(D, p)
    for p, e in factor(N // (f * f * M * L)):
        for _ in range(e):
            D = pullback_pi_paren(D, p)
    assert D.level == N
    return D


def verify_boundary(params: EisensteinParams) -> BoundaryReport:
    """Recursion path vs closed-form path; the theorem asserts equality."""
    lhs = boundary_divisor(params)
    rhs = closed_form_boundary(params)
    if lhs == rhs:
        return BoundaryReport(True, params.N, None)
    return BoundaryReport(False, params.N, first_mismatch(lhs, rhs))
