"""Integer Manin symbols: identities that hold in any basis of the quotient.

The newform orbits themselves are checked through the fixture script's
byte-for-byte regeneration of the bundled data (tests/test_newforms.py)."""

from math import prod

import pytest

from eiscong import cusps
from eiscong.arith import prime_divisors
from eiscong.modsym import P1, PlusQuotient, genus_gamma0, new_dimension


def _mat_mul(A, B):
    return [[sum(a * b for a, b in zip(row, col)) for col in zip(*B)] for row in A]


@pytest.mark.parametrize("N", [1, 2, 11, 36, 121, 171, 234, 725])
def test_p1_size(N):
    """|P^1(Z/N)| = N prod_{p | N} (1 + 1/p), each point reduced to itself."""
    points = P1(N)
    assert len(points) == prod(p + 1 for p in prime_divisors(N)) * N // prod(prime_divisors(N))
    assert all(points.index(x) == i for i, x in enumerate(points))


def test_genus_and_new_dimensions():
    # X0(N) has genus 0 for N < 11; the counts of newforms are the LMFDB's
    assert [genus_gamma0(N) for N in (1, 10, 11, 23, 37, 121, 234, 725)] == [
        0, 0, 1, 2, 2, 6, 35, 69]
    assert [new_dimension(N) for N in (11, 23, 37, 121, 234, 725)] == [1, 2, 2, 4, 5, 45]
    # the p-good levels below 2000 (p <= 13) without newforms, which full_scan
    # reads from cusps
    assert [new_dimension(N) for N in (9, 18, 25)] == [0, 0, 0]
    assert cusps.new_dimension is new_dimension


@pytest.mark.parametrize("N", [37, 121, 234])
def test_hecke_identities(N):
    """On the plus quotient: T_m T_n = T_mn for coprime m, n, and
    T_p^2 = T_{p^2} + p for p not dividing N (every matrix is D * T)."""
    sp = PlusQuotient(N)
    D = sp.D
    T = {n: sp.hecke_matrix(n) for n in (2, 3, 4, 6, 9)}
    assert _mat_mul(T[2], T[3]) == [[D * x for x in row] for row in T[6]]
    assert _mat_mul(T[3], T[2]) == _mat_mul(T[2], T[3])
    for p in (2, 3):
        if N % p:
            rhs = [[D * (x + (p * D if i == j else 0)) for j, x in enumerate(row)]
                   for i, row in enumerate(T[p * p])]
            assert _mat_mul(T[p], T[p]) == rhs


def test_orbits_do_not_depend_on_the_denominator(monkeypatch):
    """Scaling D and every symbol's vector by 3 leaves T_n = H / D, and
    doubling the boundary map leaves its kernel, so every orbit stays as it
    was.  The bundled levels have D = 1 and a boundary elimination with
    pivots 1, so this is what runs the paths that scale by a denominator."""
    from eiscong import modsym

    want = modsym.newform_orbits(171, 40)
    init, boundary = modsym.PlusQuotient.__init__, modsym.PlusQuotient.boundary_matrix

    def scaled(self, N):
        init(self, N)
        self.D *= 3
        self.red = [{k: 3 * v for k, v in r.items()} for r in self.red]

    monkeypatch.setattr(modsym.PlusQuotient, "__init__", scaled)
    monkeypatch.setattr(modsym.PlusQuotient, "boundary_matrix",
                        lambda self: [[2 * x for x in row] for row in boundary(self)])
    assert modsym.newform_orbits(171, 40) == want
