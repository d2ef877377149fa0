"""Non-rational Eisenstein series on Gamma0(N): q-expansions, refinements,
and the closed-form twisted L-values Lambda / Lambda_pm.

The base series attached to a primitive nontrivial character phi of conductor
f has coefficients b_n = sum_{bc=n} phi(c) phi^{-1}(b) b and level f^2.  The
critical refinement at l sends g(z) to g(z) - phi(l) g(lz); the ordinary one
to g(z) - l phi^{-1}(l) g(lz); both are the identity for l | f.  Scaling by
gamma_d multiplies the argument by d and the expansion by d.  All coefficients
live in Q(zeta_k), k = order(phi); nothing is ever evaluated numerically.

`e_phi` sieves straight into power-basis numerators: each pair bc = n adds
b zeta_k^j, j the exponent of phi(c) phi^{-1}(b), to b_n as the nonzero
entries of zeta^j in the field's table of zeta powers.  The sum is an
algebraic integer, so its denominator is 1 and the element needs no
reduction mod Phi_k and no canonicalization.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm, prod

from .arith import DomainError, is_prime, prime_divisors, record, valuation
from .characters import (DirichletCharacter, bernoulli_B1, chi_in_XS, gauss_sum,
                         gauss_sum_inverse)
from .cyclotomic import CycElement, CyclotomicField, _element

# e_phi holds B + 1 numerator rows and B elements at once: B = 10**5 takes
# about 0.8 s and 35 MB more peak RSS for a character of order 10 (Python 3.11,
# one core), growing linearly, so larger precisions are refused up front.
PRECISION_CAP = 10 ** 5


@record
class QExpansion:
    """Truncated expansion sum a_n q^n, coefficients exact CycElements.

    `precision` B means a_1..a_B are valid; `a0` is the constant term at the
    cusp infinity (identically 0 for every series built here).
    """

    level: int
    precision: int
    coeffs: tuple[CycElement, ...]
    a0: CycElement

    def coefficient(self, n: int) -> CycElement:
        if not 1 <= n <= self.precision:
            raise DomainError(f"coefficient a_{n} outside valid precision {self.precision}")
        return self.coeffs[n - 1]

    # -- display ------------------------------------------------------------

    def pretty(self) -> str:
        """Paper-style one-line form: q - 3q^2 + 4q^3 + ..."""
        parts = []
        for n in range(1, self.precision + 1):
            a = self.coeffs[n - 1]
            if a.is_zero():
                continue
            qn = "q" if n == 1 else f"q^{n}"
            if a.is_rational():
                r = a.rational_value()
                if r == 1:
                    term, sign = qn, "+"
                elif r == -1:
                    term, sign = qn, "-"
                else:
                    term, sign = f"{abs(r)}*{qn}", ("+" if r > 0 else "-")
            else:
                term, sign = f"({a})*{qn}", "+"
            parts.append((sign, term))
        if not parts:
            return "0"
        out = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        for sign, term in parts[1:]:
            out += f" {sign} {term}"
        return out

    def machine_lines(self) -> list[str]:
        """Machine-readable form: one `n: <polynomial in z_k>` per line."""
        return [f"{n}: {self.coeffs[n - 1]}" for n in range(1, self.precision + 1)]


def e_phi(phi: DirichletCharacter, B: int) -> QExpansion:
    """The level-f^2 Eisenstein series with b_n = sum_{bc=n} phi(c) phi^{-1}(b) b."""
    if phi.is_trivial():
        raise DomainError("e_phi requires a nontrivial character (rational series are out of scope)")
    if not phi.is_primitive():
        raise DomainError("e_phi requires a primitive character")
    if B < 1:
        raise DomainError(f"the precision must be at least 1 (got {B})")
    if B > PRECISION_CAP:
        raise DomainError(f"precision cap exceeded: {B} > {PRECISION_CAP}")
    f, k = phi.modulus, phi.order
    K = CyclotomicField(k)
    terms = K.terms
    exps = [phi.value_exponent(n) for n in range(B + 1)]
    acc = [[0] * K.degree for _ in range(B + 1)]
    # sieve: each b with phi(b) != 0 adds b zeta^j to every multiple n = b*c <= B
    for b in range(1, B + 1):
        eb = exps[b]
        if eb is None:
            continue
        for c in range(1, B // b + 1):
            ec = exps[c]
            if ec is not None:
                row = acc[b * c]
                for i, x in terms[(ec - eb) % k]:
                    row[i] += b * x
    coeffs = tuple(_element(K, tuple(row)) for row in acc[1:])  # in Z[zeta_k]: canonical
    return QExpansion(f * f, B, coeffs, K.zero())


def _refine(g: QExpansion, l: int, phi: DirichletCharacter, multiplier: CycElement,
            name: str) -> QExpansion:
    """a_n <- a_n - multiplier * a_{n/l}, the identity on coefficients when
    l | f; the level gains a factor l.  `name` heads the error for a level
    that l already divides."""
    if not is_prime(l):
        raise DomainError("refinement requires a prime")
    coeffs = g.coeffs
    if phi.modulus % l:
        if g.level % l == 0:
            raise DomainError(f"{name}={l} already dividing the level")
        coeffs = tuple(a - multiplier * coeffs[n // l - 1] if n % l == 0 else a
                       for n, a in enumerate(coeffs, 1))
    return QExpansion(g.level * l, g.precision, coeffs, g.a0)


def refine_critical(g: QExpansion, l: int, phi: DirichletCharacter) -> QExpansion:
    """[l]^+: g(z) - phi(l) g(lz); identity on coefficients when l | f."""
    return _refine(g, l, phi, phi.value(l), "critical refinement at l")


def refine_ordinary(g: QExpansion, q: int, phi: DirichletCharacter) -> QExpansion:
    """[q]^-: g(z) - q phi^{-1}(q) g(qz); identity on coefficients when q | f."""
    return _refine(g, q, phi, phi.inverse().value(q) * q, "ordinary refinement at q")


def slash_scale(g: QExpansion, d: int) -> QExpansion:
    """g|_{gamma_d}: new a_{dn} = d * a_n, other coefficients 0."""
    if d < 1:
        raise DomainError("slash_scale requires d >= 1")
    if d == 1:
        return g
    field = g.coeffs[0].field if g.coeffs else g.a0.field
    zero = field.zero()
    B = g.precision * d
    coeffs = [zero] * B
    for n in range(1, g.precision + 1):
        coeffs[d * n - 1] = g.coeffs[n - 1] * d
    return QExpansion(g.level * d, B, tuple(coeffs), g.a0 * d)


# --------------------------------------------------------------- parameters


@record
class EisensteinParams:
    """(phi, N, M, L) with f^2 M L | N and (fM, L) = 1, plus derived data."""

    phi: DirichletCharacter
    N: int
    M: int
    L: int

    def __post_init__(self):
        phi, N, M, L = self.phi, self.N, self.M, self.L
        if phi.is_trivial() or not phi.is_primitive():
            raise DomainError("EisensteinParams needs a primitive nontrivial character")
        f = phi.modulus
        if M < 1 or L < 1 or N < 1:
            raise DomainError("N, M, L must be positive")
        if N % (f * f * M * L):
            raise DomainError(f"f^2*M*L = {f*f*M*L} must divide N = {N}")
        if gcd(f * M, L) != 1:
            raise DomainError(f"(fM, L) = {gcd(f*M, L)} != 1")
        for p in prime_divisors(f):
            n_p = valuation(N, p) - 2 * valuation(f, p)
            if n_p > 1 and valuation(M, p) != n_p:
                raise DomainError(
                    f"side condition violated at p={p}: nu_p(N/f^2)={n_p} > 1 "
                    f"requires nu_p(M)={n_p}, got {valuation(M, p)}"
                )

    @property
    def f(self) -> int:
        return self.phi.modulus

    @property
    def T1(self) -> int:
        return prod(l for l in prime_divisors(self.M) if self.f % l)

    @property
    def T2(self) -> int:
        return prod(prime_divisors(self.L))

    @property
    def S_phi(self) -> tuple[int, ...]:
        out = []
        for q in prime_divisors(self.T2):
            e = self.phi.value_exponent(q)
            if e is not None and (2 * e) % self.phi.order == 0:
                out.append(q)
        return tuple(out)

    @property
    def T2_phi(self) -> int:
        return prod(self.S_phi)

    @property
    def xi(self) -> DirichletCharacter:
        """Primitive character attached to phi^2."""
        return (self.phi * self.phi).primitive_part()

    def field(self):
        """Q(zeta_f, phi) realized as Q(zeta_lcm(f, k))."""
        return CyclotomicField(lcm(self.f, self.phi.order))

    def label(self) -> str:
        return f"E[{self.phi.label()};M={self.M},L={self.L}]@{self.N}"


def build_E(params: EisensteinParams, B: int) -> QExpansion:
    """E_{phi,M,L} at level N: refinements, then scaling by ML/(T1 T2)."""
    phi = params.phi
    g = e_phi(phi, B)
    for l in prime_divisors(params.T1):
        g = refine_critical(g, l, phi)
    for q in prime_divisors(params.T2):
        g = refine_ordinary(g, q, phi)
    scale = params.M * params.L // (params.T1 * params.T2)
    g = slash_scale(g, scale)
    assert params.N % g.level == 0
    return QExpansion(params.N, B, g.coeffs[:B], g.a0)


def tl_eigenvalue(phi: DirichletCharacter, r: int) -> CycElement:
    """phi(r) + r phi^{-1}(r) for r coprime to f T1 T2."""
    return phi.value(r) + phi.inverse().value(r) * r


def uq_eigenvalue(params: EisensteinParams, q: int) -> CycElement:
    """U_q eigenvalue on E_{phi,M,L}: 0 for q | f, q phi^{-1}(q) on T1, phi(q) on T2."""
    K = CyclotomicField(params.phi.order)
    if params.f % q == 0:
        return K.zero()
    if params.T1 % q == 0:
        return params.phi.inverse().value(q) * q
    if params.T2 % q == 0:
        return params.phi.value(q)
    raise DomainError(f"q={q} does not divide f*T1*T2 for {params.label()}")


# ----------------------------------------------------------- twisted L-values


def _lambda_common(params: EisensteinParams, chi: DirichletCharacter) -> CycElement:
    """The factors Lambda and Lambda_pm share: chi(f M L / (T1 T2)), the Euler
    factors at the primes of T1 and T2, and B1(chi^{-1} phi^{-1}) B1(chi phi^{-1})."""
    phi = params.phi
    phi_inv = phi.inverse()
    T1, T2 = params.T1, params.T2
    out = chi.value(params.f * params.M * params.L // (T1 * T2))
    for l in prime_divisors(T1):
        out = out * (1 - chi.value(l) * phi.value(l) * Fraction(1, l))
    for q in prime_divisors(T2):
        out = out * (1 - chi.value(q) * phi_inv.value(q))
    return out * bernoulli_B1(chi.inverse() * phi_inv) * bernoulli_B1(chi * phi_inv)


def lambda_twisted(params: EisensteinParams, chi: DirichletCharacter) -> CycElement:
    """Lambda(E_{phi,M,L}, chi, 1) in closed form, chi primitive with
    conductor coprime to N."""
    if not chi.is_primitive() or chi.is_trivial():
        raise DomainError("lambda_twisted requires a primitive nontrivial twist")
    m_chi = chi.modulus
    if gcd(m_chi, params.N) != 1:
        raise DomainError(f"conductor {m_chi} must be coprime to N = {params.N}")
    phi = params.phi
    front = phi.value(m_chi) * gauss_sum_inverse(phi.inverse()) * Fraction(1, 2)
    return front * _lambda_common(params, chi)


def lambda_pm(params: EisensteinParams, chi: DirichletCharacter) -> CycElement:
    """Lambda_pm(E_{phi,M,L}, chi, 1) for chi in X_S^{-phi(-1)}."""
    if not chi_in_XS(chi, params.N):
        raise DomainError("chi is not in X_S for this level")
    phi = params.phi
    if chi.is_even() == phi.is_even():
        raise DomainError("chi must lie in X_S^{-phi(-1)} (opposite parity to phi)")
    front = phi.value(-chi.modulus) * gauss_sum(phi) * Fraction(1, params.f)
    # each of the two B1 values carries a factor 1/2 here
    return front * _lambda_common(params, chi) * Fraction(1, 4)
