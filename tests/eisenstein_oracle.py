"""The q-expansion code that eiscong.eisenstein.build_E replaced, kept as a
test oracle.

`build_E` now runs the sieve, the refinements and the scaling on integer
numerator rows and stores each row as a (num, 1) pair.  Before, it was
composed from the functions below, which are verbatim, on the former
container `QExpansion`, kept here too:
- `e_phi`, the sieve into power-basis numerators read off the field's table
  of zeta powers, with the nontrivial, primitive, B >= 1 and precision-cap
  checks;
- `_refine` and its two cases `refine_critical` ([l]^+) and
  `refine_ordinary` ([q]^-), which rebuild every coefficient as a
  CycElement product and difference, with the prime and level guards;
- `slash_scale`, which builds d*B coefficients of g|gamma_d;
- `build_E`, which composes them and keeps the first B coefficients.

`e_phi_counts` is the sieve `e_phi` replaced in turn: it sends each
coefficient's vector of counts of zeta_k exponents through
`CyclotomicField.element`, which validates, folds and reduces it mod Phi_k and
canonicalizes it.  `hecke_Tl` and `hecke_Uq` act on the expansions.

`derived` gives the former `EisensteinParams` properties T1, T2, S_phi,
T2_phi and xi, verbatim, which recomputed each value on every access; the
library now computes them once, with the parameters.

`QExpansion` is the former library container, its fields and `coefficient`
(the display methods stay in the library): one CycElement per coefficient
plus the constant term a0, where
the library's `QExpansion` stores (num, den) pairs.  `from_library` builds
it from a library expansion, so that `hecke_Tl` and `hecke_Uq` act on built
series.
"""

from __future__ import annotations

from math import prod

from eiscong.arith import DomainError, is_prime, prime_divisors, record
from eiscong.characters import DirichletCharacter
from eiscong.cyclotomic import CycElement, CyclotomicField, _element
from eiscong.eisenstein import PRECISION_CAP, EisensteinParams


@record
class QExpansion:
    """Truncated expansion sum a_n q^n, coefficients exact CycElements.

    `precision` B means a_1..a_B are valid; `a0` is the constant term at the
    cusp infinity.
    """

    level: int
    precision: int
    coeffs: tuple[CycElement, ...]
    a0: CycElement

    def coefficient(self, n: int) -> CycElement:
        if not 1 <= n <= self.precision:
            raise DomainError(f"coefficient a_{n} outside valid precision {self.precision}")
        return self.coeffs[n - 1]


def from_library(E) -> QExpansion:
    """The library expansion E, each (num, den) pair built into its element,
    with constant term 0."""
    coeffs = tuple(E.coefficient(n) for n in range(1, E.precision + 1))
    return QExpansion(E.level, E.precision, coeffs, E.field.zero())


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


def e_phi_counts(phi: DirichletCharacter, B: int) -> QExpansion:
    """The level-f^2 Eisenstein series with b_n = sum_{bc=n} phi(c) phi^{-1}(b) b."""
    if phi.is_trivial():
        raise DomainError("e_phi requires a nontrivial character (rational series are out of scope)")
    if not phi.is_primitive():
        raise DomainError("e_phi requires a primitive character")
    if B < 1:
        raise DomainError(f"the precision must be at least 1 (got {B})")
    f, k = phi.modulus, phi.order
    K = CyclotomicField(k)
    exps = [phi.value_exponent(n) for n in range(B + 1)]
    acc = [[0] * k for _ in range(B + 1)]
    # sieve: each b with phi(b) != 0 adds to every multiple n = b*c <= B
    for b in range(1, B + 1):
        eb = exps[b]
        if eb is None:
            continue
        for c in range(1, B // b + 1):
            ec = exps[c]
            if ec is not None:
                acc[b * c][(ec - eb) % k] += b
    coeffs = tuple(K.element(a) for a in acc[1:])
    return QExpansion(f * f, B, coeffs, K.zero())


def hecke_Tl(g: QExpansion, l: int) -> QExpansion:
    """Weight-2 T_l for l not dividing the level: a_n <- a_{ln} + l a_{n/l}."""
    if not is_prime(l):
        raise DomainError("hecke_Tl requires a prime")
    if g.level % l == 0:
        raise DomainError(f"l={l} divides the level; use hecke_Uq")
    B = g.precision // l
    coeffs = []
    for n in range(1, B + 1):
        a = g.coeffs[l * n - 1]
        if n % l == 0:
            a = a + l * g.coeffs[n // l - 1]
        coeffs.append(a)
    return QExpansion(g.level, B, tuple(coeffs), g.a0 * (l + 1))


def hecke_Uq(g: QExpansion, q: int) -> QExpansion:
    """U_q for q dividing the level: a_n <- a_{qn}."""
    if not is_prime(q):
        raise DomainError("hecke_Uq requires a prime")
    if g.level % q:
        raise DomainError(f"q={q} does not divide the level; use hecke_Tl")
    B = g.precision // q
    coeffs = [g.coeffs[q * n - 1] for n in range(1, B + 1)]
    return QExpansion(g.level, B, tuple(coeffs), g.a0 * q)


def derived(P: EisensteinParams) -> dict:
    """{name: value} of the derived data T1, T2, S_phi and T2_phi of P."""
    T1 = prod(l for l in prime_divisors(P.M) if P.f % l)
    T2 = prod(prime_divisors(P.L))
    out = []
    for q in prime_divisors(T2):
        e = P.phi.value_exponent(q)
        if e is not None and (2 * e) % P.phi.order == 0:
            out.append(q)
    S_phi = tuple(out)
    return {"T1": T1, "T2": T2, "S_phi": S_phi, "T2_phi": prod(S_phi)}
