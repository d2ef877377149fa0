import math
import random
from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import assume, given, settings, strategies as st

import fixtures_oracle
import lattice_oracle
from lattice_oracle import (block_lattice_intersect, full_ring, ideal_from_element,
                            is_ideal, is_subset_of, numerator_ideal)

from eiscong.arith import DomainError
from eiscong.cyclotomic import CyclotomicField, _CycField
from eiscong.lattices import IntegralIdeal, echelon, hnf, numerator_index


def _tau11():
    K = CyclotomicField(11)
    qr = {pow(a, 2, 11) for a in range(1, 11)}
    tau = K.zero()
    for a in range(1, 11):
        tau = tau + (K.zeta(a) if a in qr else -K.zeta(a))
    return K, tau


def test_hnf_canonical():
    rng = random.Random(11)
    for _ in range(30):
        rows = [[rng.randrange(-9, 10) for _ in range(5)] for _ in range(7)]
        h1 = hnf(rows)
        shuffled = [list(r) for r in rows]
        rng.shuffle(shuffled)
        # also mix a row into another (unimodular change of generators)
        shuffled[0] = [a + b for a, b in zip(shuffled[0], shuffled[1])]
        assert hnf(shuffled) == h1
        for i, row in enumerate(h1):
            piv = next(j for j in range(5) if row[j])
            assert row[piv] > 0
            for k in range(i):
                assert 0 <= h1[k][piv] < row[piv]


def _det(rows):
    """Determinant by Gaussian elimination over Q."""
    M = [[Fraction(x) for x in r] for r in rows]
    n, det = len(M), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if M[i][k]), None)
        if p is None:
            return 0
        if p != k:
            M[k], M[p] = M[p], M[k]
            det = -det
        det *= M[k][k]
        for r in M[k + 1:]:
            f = r[k] / M[k][k]
            r[:] = [x - f * y for x, y in zip(r, M[k])]
    return int(det)


def test_echelon_matches_rref_oracle():
    """R / pivot from the fraction-free elimination is the reduced row echelon
    form over Q, on full-rank and rank-deficient integer matrices; on square
    full-rank ones the last pivot is +-det, which `hnf` takes as its modulus."""
    rng = random.Random(61)
    deficient = square = 0
    for _ in range(300):
        rows, cols = rng.randint(1, 6), rng.randint(1, 7)
        A = [[rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)]
        for i in range(rng.randint(0, rows - 1)):  # rows that depend on two others
            k, a, b = rng.randrange(rows), rng.randint(-3, 3), rng.randint(-3, 3)
            A[k] = [a * x + b * y for x, y in zip(A[i], A[i - 1])]
        R, piv = echelon(A)
        want, want_piv = fixtures_oracle.rref(A)
        assert piv == want_piv
        assert [[Fraction(x, row[c]) for x in row] for row, c in zip(R, piv)] == want
        deficient += len(piv) < min(rows, cols)
        if rows == cols == len(piv):
            assert abs(R[-1][piv[-1]]) == abs(_det(A))
            square += 1
    assert deficient > 30 and square > 10


@st.composite
def _integer_matrices(draw):
    n = draw(st.integers(1, 8))
    m = draw(st.integers(n, n + 2))
    entry = st.integers(-6, 6)
    return [draw(st.lists(entry, min_size=n, max_size=n)) for _ in range(m)]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_integer_matrices())
def test_hnf_matches_oracle(rows):
    n = len(rows[0])
    # the lattice index is the gcd of the maximal minors; |det| when square
    index = math.gcd(*(_det(sub) for sub in combinations(rows, n)))
    assume(index != 0)
    h = hnf(rows)
    assert h == lattice_oracle.hnf(rows)
    assert math.prod(h[i][i] for i in range(n)) == index


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_integer_matrices(), st.integers(1, 60))
def test_hnf_with_modulus_matches_oracle(rows, D):
    """hnf(rows, modulus=D) is the HNF of the lattice of the rows and D*Z^n,
    rank-deficient rows included."""
    n = len(rows[0])
    scaled = [[D * (i == j) for j in range(n)] for i in range(n)]
    assert hnf(rows, modulus=D) == lattice_oracle.hnf(scaled + rows)


@pytest.mark.parametrize("rows", [
    [[1, 2], [2, 4]],
    [[1, 2, 3], [4, 5, 6], [5, 7, 9], [0, 0, 0]],
    [[1, 0, 0], [0, 1, 0]],
    [[0, 0], [0, 0]],
])
def test_hnf_rank_deficient_raises(rows):
    with pytest.raises(DomainError):
        hnf(rows)


_FIELDS = {m: CyclotomicField(m) for m in (5, 7, 9, 12)}


@st.composite
def _principal_ideal_pairs(draw):
    K = _FIELDS[draw(st.sampled_from(sorted(_FIELDS)))]
    coeffs = st.lists(st.integers(-3, 3), min_size=K.degree, max_size=K.degree)
    a, b = K.element(draw(coeffs)), K.element(draw(coeffs))
    assume(not a.is_zero() and not b.is_zero())
    return ideal_from_element(a), ideal_from_element(b)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_principal_ideal_pairs())
def test_intersection_matches_oracle(pair):
    I, J = pair
    assert block_lattice_intersect(I, J) == lattice_oracle.lattice_intersect(I, J)


def test_ideal_examples():
    K3 = CyclotomicField(3)
    assert ideal_from_element(K3.one()) == full_ring(K3)
    two = ideal_from_element(K3.from_rational(2))
    assert two.basis == ((2, 0), (0, 2)) and two.index() == 4
    K11, tau = _tau11()
    e = K11.one() - K11.zeta()
    assert ideal_from_element(e).index() == 11
    # equal ideals compare and hash equal, also over a second copy of the
    # field; one basis over two fields of one degree gives unequal ideals
    I, J = ideal_from_element(e), ideal_from_element(e * K11.zeta())
    assert I == J and hash(I) == hash(J)
    copy = IntegralIdeal(_CycField(11, K11.degree, K11.modulus), I.basis)
    assert copy == I and hash(copy) == hash(I)
    assert full_ring(K3) != full_ring(CyclotomicField(4))
    with pytest.raises(DomainError):
        ideal_from_element(K3.from_rational(Fraction(1, 2)))
    with pytest.raises(DomainError):
        ideal_from_element(K3.zero())


def test_intersection():
    K3 = CyclotomicField(3)
    I2 = ideal_from_element(K3.from_rational(2))
    I3 = ideal_from_element(K3.from_rational(3))
    I6 = ideal_from_element(K3.from_rational(6))
    assert block_lattice_intersect(I2, I3) == I6
    assert block_lattice_intersect(I2, I2) == I2
    K11, tau = _tau11()
    e = K11.one() - K11.zeta()
    eleven = ideal_from_element(K11.from_rational(11))
    assert block_lattice_intersect(ideal_from_element(e), eleven) == eleven
    # commutative / associative / contained in both
    rng = random.Random(5)
    K = CyclotomicField(5)
    for _ in range(10):
        a = K.element([rng.randrange(-3, 4) for _ in range(4)])
        b = K.element([rng.randrange(-3, 4) for _ in range(4)])
        c = K.element([rng.randrange(1, 4)])
        if a.is_zero() or b.is_zero():
            continue
        Ia, Ib, Ic = map(ideal_from_element, (a, b, c))
        ab = block_lattice_intersect(Ia, Ib)
        assert ab == block_lattice_intersect(Ib, Ia)
        assert (block_lattice_intersect(ab, Ic)
                == block_lattice_intersect(Ia, block_lattice_intersect(Ib, Ic)))
        assert is_subset_of(ab, Ia) and is_subset_of(ab, Ib)
        assert is_ideal(ab)


def test_numerator_ideal():
    K3 = CyclotomicField(3)
    assert numerator_ideal(K3.from_rational(Fraction(1, 2))) == full_ring(K3)
    K11, tau = _tau11()
    half_tau = tau * Fraction(1, 2)
    assert numerator_ideal(half_tau).index() == 11 ** 5
    assert numerator_ideal(tau) == ideal_from_element(tau)
    # unit invariance: numerator_ideal(u e) = numerator_ideal(e), u = ±zeta^j
    e = (K11.one() + K11.zeta(3)) * Fraction(1, 5)
    base = numerator_ideal(e)
    for j in (1, 4, 7):
        assert numerator_ideal(e * K11.zeta(j)) == base
        assert numerator_ideal(-(e * K11.zeta(j))) == base


def test_index_equals_norm():
    rng = random.Random(6)
    count = 0
    for m in (5, 7, 9, 12):
        K = CyclotomicField(m)
        done = 0
        while done < 125:
            e = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            if e.is_zero():
                continue
            I = ideal_from_element(e)
            assert I.index() == abs(e.norm_to_Q())
            assert is_ideal(I)
            done += 1
            count += 1
    assert count == 500


def test_golden_121_index():
    K11, tau = _tau11()
    big = tau * 605
    assert ideal_from_element(big).index() == 605 ** 10 * 11 ** 5
    assert numerator_index(big) == 605 ** 10 * 11 ** 5


_NUM_FIELDS = {m: CyclotomicField(m) for m in (3, 4, 5, 7, 9, 12, 15, 20)}


@st.composite
def _elements_with_denominator(draw, d):
    """Nonzero e in Q(zeta_m) whose canonical denominator is exactly d.  The
    numerator is a random element times 1, 1 - z, 2 + z, 3 + z or 1 + z + z^3
    (z = zeta), which puts (d*e) + (d) below the whole ring in about one draw
    in four."""
    K = _NUM_FIELDS[draw(st.sampled_from(sorted(_NUM_FIELDS)))]
    a = K.element(draw(st.lists(st.integers(-6, 6), min_size=K.degree, max_size=K.degree)))
    z = K.zeta()
    g = draw(st.sampled_from((K.one(), K.one() - z, z + 2, z + 3, K.one() + z + K.zeta(3))))
    e = a * g * Fraction(1, d)
    assume(not e.is_zero() and e.denominator() == d)
    return e


@pytest.mark.parametrize("d", (1, 2, 3, 4, 6, 12, 35))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(data=st.data())
def test_numerator_index_matches_oracle(d, data):
    e = data.draw(_elements_with_denominator(d))
    assert numerator_index(e) == numerator_ideal(e).index()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_numerator_index_unit_and_galois_invariance(data):
    d = data.draw(st.sampled_from((2, 3, 4, 6, 12, 35)))
    e = data.draw(_elements_with_denominator(d))
    K = e.field
    j = data.draw(st.integers(0, 2 * K.m - 1))
    k = data.draw(st.sampled_from(K.galois_group()))
    index = numerator_index(e)
    assert numerator_index(e * K.zeta(j)) == index
    assert numerator_index(-(e * K.zeta(j))) == index
    assert numerator_index(e.galois(k)) == index


def test_numerator_index_examples():
    K4 = CyclotomicField(4)
    # (1 - i)/2 = 1/(1 + i): Num is the whole ring, though |N(1 - i)| = 2
    assert numerator_index((K4.one() - K4.zeta()) * Fraction(1, 2)) == 1
    # a = 1 + z + z^3 generates a prime P of norm 8 in Z[zeta_7], and (2) = P P'
    # with P' its complex conjugate: (a^2/2) = P/P', so Num(a^2/2) = P, while
    # (a/2) = 1/P' and (a^2/4) = 1/P'^2 have Num the whole ring
    K7 = CyclotomicField(7)
    a = K7.one() + K7.zeta() + K7.zeta(3)
    assert numerator_index(a * a * Fraction(1, 2)) == 8
    assert numerator_index(a * a * a * Fraction(1, 4)) == 8
    assert numerator_index(a * Fraction(1, 2)) == 1
    assert numerator_index(a * a * Fraction(1, 4)) == 1
    K3 = CyclotomicField(3)
    assert numerator_index(K3.from_rational(Fraction(4, 9))) == 16
    K11, tau = _tau11()
    assert numerator_index(tau * Fraction(1, 2)) == 11 ** 5
    with pytest.raises(DomainError):
        numerator_index(K3.zero())
