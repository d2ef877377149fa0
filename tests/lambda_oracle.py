"""The paper's twisted L-values Lambda(E, chi, 1) and Lambda_pm(E, chi, 1)
in closed form, and the character helpers only they use, kept as test code:
the library has no caller for them.

`lambda_twisted`, `lambda_pm` and their shared factor `_lambda_common` come
verbatim from eiscong.eisenstein; `bernoulli_B1` and the X_S membership test
`chi_in_XS` come verbatim from eiscong.characters.  `character_product`
multiplies characters of different moduli, which the library never does.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from eiscong.arith import DomainError, is_prime, prime_divisors
from eiscong.characters import (DirichletCharacter, _make, gauss_sum, gauss_sum_inverse,
                                unit_group)
from eiscong.cyclotomic import CycElement, CyclotomicField
from eiscong.eisenstein import EisensteinParams


def character_product(a: DirichletCharacter, b: DirichletCharacter) -> DirichletCharacter:
    """The character a b mod lcm of the moduli, from its values at the
    generators of that unit group."""
    M, k = lcm(a.modulus, b.modulus), lcm(a.order, b.order)
    return _make(M, k, [a.value_exponent(g) * (k // a.order) + b.value_exponent(g) * (k // b.order)
                        for g in unit_group(M)[0]])


def bernoulli_B1(chi: DirichletCharacter) -> CycElement:
    """B1(chi) = (1/f) sum_a chi(a) a, for nontrivial chi; 0 when chi is even."""
    if chi.is_trivial():
        raise DomainError("B1 of the trivial character is not used by any formula in scope")
    f, k = chi.modulus, chi.order
    K = CyclotomicField(k)
    acc = [0] * k
    for a in range(1, f):
        e = chi.value_exponent(a)
        if e is None:
            continue
        acc[e % k] += a
    return K.power_sum(acc) * Fraction(1, f)


def chi_in_XS(chi: DirichletCharacter, N: int) -> bool:
    """Membership in X_S for level N: prime conductor = 3 mod 4, not quadratic,
    conductor coprime to N."""
    m = chi.conductor()
    if not is_prime(m) or m % 4 != 3:
        return False
    if chi.primitive_part().order <= 2:
        return False
    return gcd(m, N) == 1


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
    return (out * bernoulli_B1(character_product(chi.inverse(), phi_inv))
            * bernoulli_B1(character_product(chi, phi_inv)))


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
