import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

import cyclotomic_oracle
from eiscong import polys
from eiscong.arith import DomainError, FrozenRecordError
from eiscong.cyclotomic import (CycElement, CyclotomicField,
                                cyclotomic_polynomial)
from cyclotomic_oracle import divmod_exact


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(11) == tuple([1] * 11)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert cyclotomic_polynomial(1) == (-1, 1)
    # Phi_m divides x^m - 1
    for m in (6, 8, 15, 30):
        xm1 = [-1] + [0] * (m - 1) + [1]
        q, r = divmod_exact(
            [Fraction(c) for c in xm1], [Fraction(c) for c in cyclotomic_polynomial(m)]
        )
        assert not r


def test_degree_cap():
    with pytest.raises(DomainError):
        CyclotomicField(509)  # degree 508 > 200


def test_embed():
    K3, K12 = CyclotomicField(3), CyclotomicField(12)
    assert K3.one().embed(12) == K12.one()
    assert K3.zeta().embed(12) == K12.zeta(4)
    with pytest.raises(DomainError):
        K3.zeta().embed(10)
    # norm compatibility: N_{Q(z10)}(embed(e)) = N_{Q(z5)}(e)^[Q(z10):Q(z5)]
    K5 = CyclotomicField(5)
    e = K5.one() + K5.zeta()
    assert e.embed(10).norm_to_Q() == e.norm_to_Q() ** 1  # equal degrees here
    e2 = K3.element([2, 5])
    assert e2.embed(12).norm_to_Q() == e2.norm_to_Q() ** 2


def test_field_operations():
    K11 = CyclotomicField(11)
    z = K11.zeta()
    assert z * z ** 10 == K11.one()
    assert K11.from_rational(2).inverse() == K11.from_rational(Fraction(1, 2))
    x = K11.element([1, 2, 0, Fraction(3, 7), 0, 0, 1])
    assert x * x.inverse() == K11.one()
    with pytest.raises(ZeroDivisionError):
        K11.zero().inverse()


def _sqrt_minus_11(K):
    qr = {pow(a, 2, 11) for a in range(1, 11)}
    tau = K.zero()
    for a in range(1, 11):
        tau = tau + (K.zeta(a) if a in qr else -K.zeta(a))
    return tau


def test_quadratic_gauss_sum_square():
    K11 = CyclotomicField(11)
    tau = _sqrt_minus_11(K11)
    assert tau * tau == K11.from_rational(-11)


def _norm_oracle(e: CycElement) -> Fraction:
    """Independent norm: determinant of the multiplication matrix (Bareiss-free
    fraction Gaussian elimination)."""
    d = e.field.degree
    rows = []
    for i in range(d):
        rows.append(list((e * e.field.zeta(i)).coeffs))
    det = Fraction(1)
    for c in range(d):
        piv = next((i for i in range(c, d) if rows[i][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            rows[c], rows[piv] = rows[piv], rows[c]
            det = -det
        det *= rows[c][c]
        inv = Fraction(1) / rows[c][c]
        for i in range(c + 1, d):
            if rows[i][c]:
                f = rows[i][c] * inv
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[c])]
    return det


def test_norms():
    K11 = CyclotomicField(11)
    assert K11.from_rational(5).norm_to_Q() == Fraction(5) ** 10
    tau = _sqrt_minus_11(K11)
    assert tau.norm_to_Q() == 11 ** 5
    assert (K11.one() - K11.zeta()).norm_to_Q() == 11
    # resultant implementation against the multiplication-matrix oracle
    rng = random.Random(3)
    for m in (5, 7, 12):
        K = CyclotomicField(m)
        for _ in range(25):
            e = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            assert e.norm_to_Q() == _norm_oracle(e)


def test_norm_multiplicative():
    rng = random.Random(4)
    K = CyclotomicField(7)
    for _ in range(50):
        a = K.element([rng.randrange(-4, 5) for _ in range(6)])
        b = K.element([rng.randrange(-4, 5) for _ in range(6)])
        assert (a * b).norm_to_Q() == a.norm_to_Q() * b.norm_to_Q()


def test_galois_and_conjugate():
    K = CyclotomicField(11)
    tau = _sqrt_minus_11(K)
    # complex conjugation on sqrt(-11) flips the sign
    assert tau.conjugate() == -tau
    assert tau.conjugate().conjugate() == tau
    # product of an element with all its conjugates is the norm
    e = K.element([1, 1])
    prod = K.one()
    for j in K.galois_group():
        prod = prod * e.galois(j)
    assert prod == K.from_rational(e.norm_to_Q())


# -- the integer kernel against the Fraction oracle ------------------------------

_ORACLE_FIELDS = (1, 3, 4, 5, 7, 9, 12, 15, 55, 110)


@st.composite
def _elements(draw, m, n=1):
    """n elements of Q(zeta_m) as Fraction coefficient lists, some longer than
    the degree so that construction reduces them."""
    d = CyclotomicField(m).degree
    out = []
    for _ in range(n):
        length = draw(st.integers(0, d + 3))
        nums = draw(st.lists(st.integers(-6, 6), min_size=length, max_size=length))
        dens = draw(st.lists(st.integers(1, 6), min_size=length, max_size=length))
        out.append([Fraction(a, b) for a, b in zip(nums, dens)])
    return out


@st.composite
def _field_and_elements(draw, n):
    m = draw(st.sampled_from(_ORACLE_FIELDS))
    return m, draw(_elements(m, n))


def _same(x, y) -> bool:
    """x (integer kernel) and y (oracle) are the same element."""
    return x.field.m == y.field.m and x.coeffs == y.coeffs


_scalars = st.one_of(st.integers(-12, 12),
                     st.fractions(min_value=-5, max_value=5, max_denominator=9))


@settings(max_examples=120, deadline=None, derandomize=True)
@given(_field_and_elements(2), _scalars, st.data())
def test_ring_operations_match_oracle(mc, c, data):
    m, (u, v) = mc
    K, OK = CyclotomicField(m), cyclotomic_oracle.CyclotomicField(m)
    a, b, oa, ob = K.element(u), K.element(v), OK.element(u), OK.element(v)
    assert _same(a, oa) and _same(b, ob)
    assert _same(a + b, oa + ob)
    assert _same(a - b, oa - ob)
    assert _same(a * b, oa * ob)
    assert _same(-a, -oa)
    assert _same(a * c, oa * c) and _same(c * a, c * oa)
    assert _same(a + c, oa + c) and _same(c - a, c - oa)
    j = data.draw(st.sampled_from(K.galois_group()))
    assert _same(a.galois(j), oa.galois(j))
    t = data.draw(st.sampled_from((1, 2, 3)))
    assert _same(a.embed(m * t), oa.embed(m * t))
    assert str(a) == str(oa)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_field_and_elements(2))
def test_inverse_and_norm_match_oracle(mc):
    m, (u, v) = mc
    K, OK = CyclotomicField(m), cyclotomic_oracle.CyclotomicField(m)
    a, b, oa = K.element(u), K.element(v), OK.element(u)
    assert a.norm_to_Q() == oa.norm_to_Q()
    assert (a * b).norm_to_Q() == a.norm_to_Q() * b.norm_to_Q()
    assume(not a.is_zero())
    inv = a.inverse()
    assert _same(inv, oa.inverse())
    assert a * inv == K.one()


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_field_and_elements(2), st.integers(1, 30))
def test_equal_values_hash_equal(mc, c):
    m, (u, v) = mc
    K = CyclotomicField(m)
    a, b = K.element(u), K.element(v)
    for other in (K.element([x * c for x in u]) * Fraction(1, c),
                  (a + b) - b,
                  (a * c) / c,
                  K.element(list(u) + [0] * m)):
        assert other == a and hash(other) == hash(a)
        assert other.num == a.num and other.den == a.den
    assert a.den > 0 and gcd(a.den, *a.num) == 1
    assert K.element([2, 4]) * Fraction(1, 2) == K.element([1, 2])
    assert hash(K.element([2, 4]) * Fraction(1, 2)) == hash(K.element([1, 2]))


# operand pairs from two fields: m | m', and coprime m and m'
_CROSS_FIELDS = ((3, 12), (4, 12), (5, 10), (11, 110), (3, 4), (5, 7), (4, 9))


@st.composite
def _over(draw, m, den):
    """Fraction coefficients of an element of Q(zeta_m) with denominator den."""
    d = CyclotomicField(m).degree
    nums = draw(st.lists(st.integers(-9, 9), min_size=d, max_size=d))
    nums[draw(st.integers(0, d - 1))] = 1  # content 1, so den is not cancelled
    return [Fraction(c, den) for c in nums]


@pytest.mark.parametrize("dens", ((1, 1), (1, 6), (4, 1), (6, 10)))
@settings(max_examples=40, deadline=None, derandomize=True)
@given(pair=st.sampled_from(_CROSS_FIELDS), data=st.data())
def test_cross_field_operations_match_oracle(dens, pair, data):
    """+, -, * and == of elements of two different fields promote to the
    compositum exactly as the oracle does; results hash as the same element
    built in the compositum."""
    m, m2 = pair
    u, v = data.draw(_over(m, dens[0])), data.draw(_over(m2, dens[1]))
    a, b = CyclotomicField(m).element(u), CyclotomicField(m2).element(v)
    oa, ob = cyclotomic_oracle.CyclotomicField(m).element(u), cyclotomic_oracle.CyclotomicField(m2).element(v)
    assert (a.den, b.den) == dens
    if m2 % m == 0 and data.draw(st.booleans()):  # an equal pair across the fields
        b, ob = a.embed(m2), oa.embed(m2)
    for x, y, ox, oy in ((a, b, oa, ob), (b, a, ob, oa)):
        for got, want in ((x + y, ox + oy), (x - y, ox - oy), (x * y, ox * oy)):
            assert _same(got, want)
            rebuilt = CyclotomicField(want.field.m).element(want.coeffs)
            assert got == rebuilt and hash(got) == hash(rebuilt)
        assert (x == y) == (ox == oy)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.sampled_from(_ORACLE_FIELDS), st.data())
def test_power_sum_matches_element(m, data):
    """sum_j counts[j] zeta^j from the table of powers is the element that
    reducing the counts mod Phi_m gives."""
    counts = data.draw(st.lists(st.integers(-20, 20), min_size=m, max_size=m))
    K = CyclotomicField(m)
    got, want = K.power_sum(counts), K.element(counts)
    assert (got.num, got.den, hash(got)) == (want.num, want.den, hash(want))


_REDUCE_FIELDS = _ORACLE_FIELDS + (169, 272)


@st.composite
def _long_vector(draw):
    """A field from _REDUCE_FIELDS and an integer vector of length up to
    2m + 3, so that every power of zeta, past two periods, is reduced."""
    m = draw(st.sampled_from(_REDUCE_FIELDS))
    n = draw(st.integers(0, 2 * m + 3))
    return m, draw(st.lists(st.one_of(st.just(0), st.integers(-40, 40)), min_size=n, max_size=n))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_long_vector())
def test_reduce_matches_fold_and_divide(mv):
    """Reduction read off the zeta table equals the former fold with
    zeta^m = 1 (or zeta^(m/2) = -1) and division by Phi_m, and leaves its
    input unchanged."""
    m, v = mv
    K = CyclotomicField(m)
    w = list(v)
    assert K.reduce(w) == cyclotomic_oracle.reduce_by_division(K, list(v))
    assert w == v


@pytest.mark.parametrize("m", _REDUCE_FIELDS)
def test_reduce_every_length(m):
    """The same comparison at every length 0..2m + 3, one seeded vector each."""
    rng = random.Random(m)
    K = CyclotomicField(m)
    for n in range(2 * m + 4):
        v = [rng.randint(-40, 40) for _ in range(n)]
        assert K.reduce(list(v)) == cyclotomic_oracle.reduce_by_division(K, v), (m, n)


def test_elements_stay_frozen():
    K = CyclotomicField(12)
    a = K.element([1, Fraction(1, 3)])
    for x in (a, K.zeta(5), -a, a + a, a * K.zeta(7), a * 3, K.power_sum([0, 2, 0, 1]),
              a.embed(24), K.zero(), 1 - a, Fraction(2, 3) - a, 3 - 3 * a):
        for name, value in (("num", (0,)), ("den", 2), ("field", K)):
            with pytest.raises(FrozenRecordError):
                setattr(x, name, value)
        assert x.den > 0 and gcd(x.den, *x.num) == 1


def test_zeta_matches_reduced_power():
    """zeta(j), a unit vector up to sign when it can be, is the reduction of
    x^j, for every j in three periods and m up to 110."""
    for m in (1, 3, 4, 5, 7, 9, 12, 15, 55, 110):
        K = CyclotomicField(m)
        for j in range(-m, 2 * m):
            assert K.zeta(j) == K.element([0] * (j % m) + [1]), (m, j)


def _plain_product(f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] += a * b
    return out


_sparse_ints = st.lists(st.one_of(st.just(0), st.integers(-50, 50)), max_size=12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_sparse_ints, _sparse_ints, st.booleans())
def test_polys_mul_matches_plain_product(f, g, fractions):
    if fractions:
        f = [Fraction(c, 3) for c in f]
    assert polys.mul(f, g) == _plain_product(f, g)
    assert polys.mul(g, f) == _plain_product(f, g)
