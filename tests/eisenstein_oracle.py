"""The q-expansion sieve that eiscong.eisenstein.e_phi replaced, kept as a
test oracle.

`e_phi` sends each coefficient's vector of counts of zeta_k exponents through
`CyclotomicField.element`, which validates, folds and reduces it mod Phi_k and
canonicalizes it.  The library now reads the same sum off the field's table of
powers.  The code is verbatim.
"""

from __future__ import annotations

from eiscong.arith import DomainError, is_prime
from eiscong.characters import DirichletCharacter
from eiscong.cyclotomic import CyclotomicField
from eiscong.eisenstein import QExpansion


def e_phi(phi: DirichletCharacter, B: int) -> QExpansion:
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
