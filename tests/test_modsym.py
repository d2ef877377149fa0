"""Integer Manin symbols: identities that hold in any basis of the quotient,
and the integer characteristic polynomial against an exact oracle.

The newform orbits themselves are checked through the fixture script's
byte-for-byte regeneration of the bundled data (tests/test_newforms.py)."""

from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings, strategies as st

from eiscong import cusps
from eiscong.arith import prime_divisors
from eiscong.modsym import P1, PlusQuotient, charpoly, genus_gamma0, new_dimension


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


def _faddeev_leverrier(A):
    """det(x I - A), ascending, in exact rationals: from M_1 = I and c_n = 1,
    c_{n-k} = -tr(A M_k) / k and M_{k+1} = A M_k + c_{n-k} I."""
    n = len(A)
    c = [Fraction(0)] * n + [Fraction(1)]
    M = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for k in range(1, n + 1):
        AM = _mat_mul(A, M)
        c[n - k] = -sum(AM[i][i] for i in range(n)) / k
        M = [[x + (c[n - k] if i == j else 0) for j, x in enumerate(row)]
             for i, row in enumerate(AM)]
    return c


_ENTRY = st.integers(-2 ** 70, 2 ** 70)


@st.composite
def _integer_matrices(draw):
    """Square integer matrices, n <= 8, with entries up to 2^70 in size, so the
    charpoly's coefficients need several 61-bit primes: generic ones,
    singular ones (one row a combination of two others), and ones with every
    eigenvalue repeated (diag(B, B) conjugated by I + t e_ij)."""
    kind = draw(st.sampled_from(["generic", "singular", "repeated"]))
    if kind == "repeated":
        m = draw(st.integers(1, 4))
        B = draw(st.lists(st.lists(_ENTRY, min_size=m, max_size=m), min_size=m, max_size=m))
        n = 2 * m
        A = [row + [0] * m for row in B] + [[0] * m + row for row in B]
        i, j = draw(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)))
        t = draw(st.integers(-2 ** 20, 2 ** 20)) if i != j else 0
        # (I + t e_ij) A (I - t e_ij): add t * row j to row i, then -t * column i to column j
        A[i] = [x + t * y for x, y in zip(A[i], A[j])]
        for row in A:
            row[j] -= t * row[i]
        return A
    n = draw(st.integers(1 if kind == "generic" else 3, 8))
    A = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=n, max_size=n))
    if kind == "singular":
        a, b = draw(st.integers(-3, 3)), draw(st.integers(-3, 3))
        A[-1] = [a * x + b * y for x, y in zip(A[0], A[1])]
    return A


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_integer_matrices())
@example([[0, 0], [0, 0]])
@example([[2, 1], [0, 2]])
@example([[-2 ** 70, 0], [0, -2 ** 70]])
def test_charpoly_matches_faddeev_leverrier(A):
    """`charpoly` equals det(x I - A) computed over Q, signs included."""
    want = _faddeev_leverrier(A)
    assert all(c.denominator == 1 for c in want)
    assert charpoly(A) == want

