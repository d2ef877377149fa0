"""The former `ideals.s2_set`, which takes the B2 norm of every nontrivial
character mod p, one by one, kept as test code: the library now takes one
norm per Galois orbit."""

from __future__ import annotations

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
