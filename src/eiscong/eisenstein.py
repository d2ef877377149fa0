"""Non-rational Eisenstein series on Gamma0(N): parameters, q-expansions,
refinements and Hecke eigenvalues.

The base series attached to a primitive nontrivial character phi of conductor
f has coefficients b_n = sum_{bc=n} phi(c) phi^{-1}(b) b and level f^2.  The
critical refinement at l sends g(z) to g(z) - phi(l) g(lz); the ordinary one
to g(z) - l phi^{-1}(l) g(lz); both are the identity for l | f.  Scaling by
gamma_d multiplies the argument by d and the expansion by d.  All coefficients
live in Q(zeta_k), k = order(phi); nothing is ever evaluated numerically.

`build_E` computes E_{phi,M,L} on integer power-basis numerator rows, one
per coefficient.  Scaling by d = ML/(T1 T2) keeps only the rows n <= B/d,
each multiplied by d.  The sieve adds d b zeta_k^j, j the exponent of
phi(c) phi^{-1}(b), to row bc for each pair of units b, c.  Each refinement
subtracts u zeta_k^j times row n/l from row n, with n descending.  Every
multiple of zeta_k^j is read off the nonzero entries of the field's table of
zeta powers.  The rows stay in Z[zeta_k], so each coefficient is made once,
at the end, with denominator 1, no reduction mod Phi_k and no
canonicalization.
"""

from __future__ import annotations

from math import gcd, lcm, prod

from .arith import DomainError, prime_divisors, record, valuation
from .characters import DirichletCharacter
from .cyclotomic import CycElement, CyclotomicField, _element

# build_E holds B/d + 1 numerator rows and B elements at once: B = 10**5 takes
# about 0.3 s and 38 MB more peak RSS for a character of order 10 at d = 1
# (Python 3.11, one core), growing linearly, so larger precisions are refused
# before anything is allocated.
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


# --------------------------------------------------------------- parameters


@record
class EisensteinParams:
    """(phi, N, M, L) with f^2 M L | N and (fM, L) = 1, plus derived data."""

    phi: DirichletCharacter
    N: int
    M: int
    L: int
    T1: int  # the product of the primes of M prime to f
    T2: int  # the product of the primes of L
    S_phi: tuple[int, ...]  # the primes q | T2 with phi(q)^2 = 1
    T2_phi: int  # the product of S_phi
    xi: DirichletCharacter  # the primitive character attached to phi^2
    # set by __post_init__; outside ==, hash and repr
    _computed = ("T1", "T2", "S_phi", "T2_phi", "xi")

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
        primes_L = prime_divisors(L)
        S_phi = tuple(q for q in primes_L if 2 * phi.value_exponent(q) % phi.order == 0)
        object.__setattr__(self, "T1", prod(l for l in prime_divisors(M) if f % l))
        object.__setattr__(self, "T2", prod(primes_L))
        object.__setattr__(self, "S_phi", S_phi)
        object.__setattr__(self, "T2_phi", prod(S_phi))
        object.__setattr__(self, "xi", phi.power(2).primitive_part())

    @property
    def f(self) -> int:
        return self.phi.modulus

    def field(self):
        """Q(zeta_f, phi) realized as Q(zeta_lcm(f, k))."""
        return CyclotomicField(lcm(self.f, self.phi.order))

    def label(self) -> str:
        return f"E[{self.phi.label()};M={self.M},L={self.L}]@{self.N}"


def build_E(params: EisensteinParams, B: int) -> QExpansion:
    """E_{phi,M,L} at level N to precision B: the level-f^2 series b_n, the
    refinements [l]^+ at l | T1 and [q]^- at q | T2, then the scaling by
    d = ML/(T1 T2), all on integer numerator rows."""
    if B < 1:
        raise DomainError(f"the precision must be at least 1 (got {B})")
    if B > PRECISION_CAP:
        raise DomainError(f"precision cap exceeded: {B} > {PRECISION_CAP}")
    phi, T1, T2 = params.phi, params.T1, params.T2
    d = params.M * params.L // (T1 * T2)
    level = params.f ** 2 * T1 * T2 * d  # f^2, times l per refinement, times d
    assert params.N % level == 0
    k = phi.order
    K = CyclotomicField(k)
    terms = K.terms
    top = B // d  # a_{nd} = d b_n: only b_1..b_top reach the precision
    exps = [phi.value_exponent(n) for n in range(top + 1)]
    units = [c for c in range(1, top + 1) if exps[c] is not None]
    rows = [[0] * K.degree for _ in range(top + 1)]
    # sieve: each unit b adds d b zeta^j, zeta^j = phi(c) phi^{-1}(b), to every
    # n = b*c <= top with c a unit
    for b in units:
        db, eb = d * b, exps[b]
        for c in units:
            if (n := b * c) > top:
                break
            row = rows[n]
            for i, x in terms[(exps[c] - eb) % k]:
                row[i] += db * x
    # refinements a_n -= u zeta^j a_{n/l}, n descending so that a_{n/l} is
    # still unrefined: u zeta^j = phi(l) for [l]^+, q phi^{-1}(q) for [q]^-
    steps = [(l, 1, phi.value_exponent(l)) for l in prime_divisors(T1)]
    steps += [(q, q, -phi.value_exponent(q)) for q in prime_divisors(T2)]
    for l, u, j in steps:
        for n in range(top - top % l, 0, -l):
            row = rows[n]
            for i, x in enumerate(rows[n // l]):
                if x:
                    ux = u * x
                    for t, y in terms[(i + j) % k]:
                        row[t] -= ux * y
    zero = K.zero()
    coeffs = [zero] * B
    for n in range(1, top + 1):
        coeffs[n * d - 1] = _element(K, tuple(rows[n]))  # in Z[zeta_k]: canonical
    return QExpansion(params.N, B, tuple(coeffs), zero)


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
