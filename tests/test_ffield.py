import random

import pytest
from hypothesis import given, settings, strategies as st

import ffield_oracle
import roots_oracle
from helpers import count_calls
from eiscong import ffield, polys
from eiscong.arith import DomainError, is_prime
from eiscong.cyclotomic import cyclotomic_polynomial
from eiscong.ffield import FiniteField, conway_style_modulus, factor_mod_q, roots_in_field


def _roots(int_poly, F):
    """The roots in F of an integer polynomial, read off its factorization mod
    F.q; a polynomial that is constant mod F.q has none."""
    if any(c % F.q for c in int_poly[1:]):
        return roots_in_field(factor_mod_q(int_poly, F.q), F)
    return []


def _degrees(int_poly, q):
    """The degrees of the distinct irreducible factors of f mod q, ascending."""
    return [e for e, _ in factor_mod_q(int_poly, q)]


def test_root_examples():
    assert _roots(cyclotomic_polynomial(11), FiniteField.create(5, 1)) == []
    roots = _roots(cyclotomic_polynomial(11), FiniteField.create(5, 5))
    assert len(roots) == 10
    F = FiniteField.create(5, 5)
    assert all(ffield_oracle.multiplicative_order(F, x) == 11 for x in roots)
    assert _roots([-2, 0, 1], FiniteField.create(7, 1)) == [(3,), (4,)]
    # ramified reduction: zeta_10 -> -1 above 5
    assert _roots(cyclotomic_polynomial(10), FiniteField.create(5, 1)) == [(4,)]


def test_splitting_matches_enumeration():
    r1 = _roots(cyclotomic_polynomial(11), FiniteField.create(5, 5))
    r2 = ffield_oracle.roots_in_field(cyclotomic_polynomial(11), FiniteField.create(5, 5),
                                      force_splitting=True)
    assert r1 == r2
    r3 = _roots([-1, 0, 41, 0, -13, 0, 1], FiniteField.create(7, 2))
    r4 = ffield_oracle.roots_in_field([-1, 0, 41, 0, -13, 0, 1], FiniteField.create(7, 2),
                                      force_splitting=True)
    assert r3 == r4 and len(r3) == 4


def test_field_arithmetic():
    F = FiniteField.create(7, 2)
    rng = random.Random(9)
    for _ in range(60):
        a = tuple(rng.randrange(7) for _ in range(2))
        b = tuple(rng.randrange(7) for _ in range(2))
        assert F.mul(a, b) == F.mul(b, a)
        if any(a):
            assert F.mul(a, F.inv(a)) == F.one()
            assert F.pow(a, F.size - 1) == F.one()
    with pytest.raises(ZeroDivisionError):
        F.inv(F.zero())


def test_modulus_deterministic_and_irreducible():
    assert conway_style_modulus(7, 1) == (0, 1)
    h = conway_style_modulus(7, 2)
    assert h == conway_style_modulus(7, 2)
    F = FiniteField.create(7, 2)
    # the modulus has no roots in F_7
    assert all((c * c * h[2] + c * h[1] + h[0]) % 7 for c in range(7))


def test_factor_degrees():
    assert _degrees([-1, 0, 41, 0, -13, 0, 1], 7) == [1, 1, 2]
    assert _degrees(list(cyclotomic_polynomial(11)), 5) == [5, 5]
    assert _degrees([-2, 0, 1], 7) == [1, 1]
    assert _degrees([0, 1], 5) == [1]
    with pytest.raises(DomainError):
        _degrees([5, 10], 5)


def test_factor_degrees_multiplicity_divisible_by_q():
    """A factor whose multiplicity q divides is counted once, also when
    f' = 0 mod q."""
    assert _degrees([-1, 0, 0, 1], 3) == [1]  # (y - 1)^3
    assert _degrees([1, 0, 1], 2) == [1]  # (y + 1)^2
    assert _degrees(polys.mul([-1, 0, 0, 1], [1, 0, 1]), 3) == [1, 2]
    assert _degrees(polys.mul([1, 0, 1], [1, 1, 1]), 2) == [1, 2]
    assert _degrees(polys.mul([1, 0, 1], [1, 0, 1]), 2) == [1]  # (y + 1)^4


# ---------------------------------------------------------------- oracle suites

_PRIMES = (2, 3, 5, 7, 11)


@st.composite
def _field_and_pair(draw):
    q = draw(st.sampled_from(_PRIMES))
    r = draw(st.integers(1, 6))
    elem = st.tuples(*[st.integers(0, q - 1)] * r)
    return FiniteField.create(q, r), draw(elem), draw(elem)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_and_pair())
def test_mul_matches_oracle(case):
    F, a, b = case
    assert F.mul(a, b) == ffield_oracle.OracleField.create(F.q, F.r).mul(a, b)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_and_pair())
def test_inv_matches_oracle(case):
    F, a, _ = case
    if not any(a):
        with pytest.raises(ZeroDivisionError):
            F.inv(a)
        return
    inv = F.inv(a)
    assert inv == ffield_oracle.OracleField(F.q, F.r, F.modulus).inv(a)
    assert F.mul(a, inv) == F.one()


_FIELDS_TO_3000 = [(q, r) for q in range(2, 60) if is_prime(q)
                   for r in range(1, 12) if q ** r <= 3000]


def test_conway_style_modulus_matches_oracle():
    for q, r in _FIELDS_TO_3000:
        assert conway_style_modulus(q, r) == ffield_oracle.conway_style_modulus(q, r)


@st.composite
def _monic_modq(draw):
    q, r = draw(st.sampled_from(_FIELDS_TO_3000))
    return draw(st.lists(st.integers(0, q - 1), min_size=r, max_size=r)) + [1], q


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_monic_modq())
def test_irreducibility_matches_oracle(case):
    """The test `conway_style_modulus` uses, that the first factor the
    distinct-degree split yields has degree r, and the factor degrees being
    [r], against the former Rabin test, which wrongly calls every linear
    polynomial reducible: at r = 1 the answer is True."""
    h, q = case
    r = len(h) - 1
    want = r == 1 or ffield_oracle._irreducible_modq(h, q)
    Fq = FiniteField(q, 1, (0, 1))
    assert (next(ffield._distinct_degree(ffield._reduce_monic(h, Fq), Fq))[0] == r) == want
    assert (_degrees(h, q) == [r]) == want


@st.composite
def _int_poly(draw, q):
    """An integer polynomial of degree >= 1 mod q whose leads need not be 1 mod q:
    a product of random factors, some squared, some with an integer lead
    divisible by q, scaled by a random unit mod q."""
    unit = st.integers(1, q - 1)
    poly = [draw(unit) * draw(st.sampled_from((1, -1)))]
    for _ in range(draw(st.integers(1, 3))):
        factor = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=3))
        factor.append(draw(unit) + q * draw(st.integers(0, 2)))
        if draw(st.integers(0, 3)) == 0:
            factor.append(q * draw(st.integers(1, 3)))
        for _ in range(draw(st.integers(1, 2))):
            poly = polys.mul(poly, factor)
    return poly


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.sampled_from(_PRIMES + (13,)).flatmap(
    lambda q: st.tuples(st.just(q), _int_poly(q))))
def test_factor_degrees_matches_oracle(case):
    q, poly = case
    degrees = _degrees(poly, q)
    if len(ffield._reduce_monic(poly, FiniteField(q, 1, (0, 1)))) <= q:
        # degree < q: no multiplicity is divisible by q, so the oracle's
        # f / gcd(f, f') is the product of the distinct factors
        assert degrees == ffield_oracle.factor_degrees_mod_q(poly, q)
        return
    # The oracle drops factors whose multiplicity q divides.  Count instead:
    # with n_d distinct factors of degree d <= 3, f has sum_{d | e} d n_d
    # distinct roots in F_{q^e}, found by enumeration, and e = 1, 2, 3 fix n.
    assert max(degrees) <= 3
    for e in (1, 2, 3):
        count = len(ffield_oracle.roots_in_field(poly, FiniteField.create(q, e)))
        assert count == sum(d for d in degrees if e % d == 0)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from([(q, r) for q, r in _FIELDS_TO_3000 if q <= 11 and q ** r <= 1000])
       .flatmap(lambda qr: st.tuples(st.just(qr), _int_poly(qr[0]))),
       st.booleans())
def test_roots_in_field_non_monic_matches_oracle(case, force_splitting):
    (q, r), poly = case
    F = FiniteField.create(q, r)
    # the oracle's split probes with (y + c)^((|F|-1)/2), which never
    # separates roots in characteristic 2, so there it enumerates F
    assert (_roots(poly, F)
            == ffield_oracle.roots_in_field(poly, F, force_splitting=force_splitting and q != 2))


@st.composite
def _small_field_and_poly(draw, odd=True):
    """A field with q^r <= 3000 and a monic integer polynomial that is a
    product of random linear factors over Z and a random monic cofactor."""
    q = draw(st.sampled_from((3, 5, 7, 11) if odd else (2,)))
    r = draw(st.integers(1, 6).filter(lambda r: q ** r <= 3000))
    poly = [1]
    for a in draw(st.lists(st.integers(-20, 20), max_size=3)):
        poly = list(polys.mul(poly, [a, 1]))
    cofactor = draw(st.lists(st.integers(-20, 20), max_size=5)) + [1]
    return FiniteField.create(q, r), list(polys.mul(poly, cofactor))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_small_field_and_poly(), st.booleans())
def test_roots_in_field_matches_oracle(case, force_splitting):
    F, poly = case
    assert (_roots(poly, F)
            == ffield_oracle.roots_in_field(poly, F, force_splitting=force_splitting))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_small_field_and_poly(odd=False))
def test_characteristic_two_splitting_matches_enumeration(case):
    F, poly = case
    assert _roots(poly, F) == ffield_oracle.roots_in_field(poly, F)


@st.composite
def _same_degree_product(draw):
    """A field F_{q^r} and an integer polynomial that is, mod q, a product of
    distinct monic irreducibles of one degree e | r, times a unit."""
    q = draw(st.sampled_from((2, 3, 5, 7)))
    e = draw(st.integers(1, 3).filter(lambda e: q ** e <= 1000))
    r = e * draw(st.integers(1, 3).filter(lambda k: q ** (e * k) <= 1000))
    irreducible = (st.lists(st.integers(0, q - 1), min_size=e, max_size=e)
                   .map(lambda h: h + [1])
                   .filter(lambda h: ffield_oracle._irreducible_modq(h, q)))
    poly = [draw(st.integers(1, q - 1))]
    for h in {tuple(draw(irreducible)) for _ in range(draw(st.integers(1, 3)))}:
        poly = polys.mul(poly, [c + q * draw(st.integers(-2, 2)) for c in h])
    return FiniteField.create(q, r), poly


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_same_degree_product(), st.booleans())
def test_frobenius_orbit_roots_match_gcd_roots(case, force_splitting):
    F, poly = case
    roots = _roots(poly, F)
    assert roots == roots_oracle.roots_in_field(poly, F, force_splitting=force_splitting)
    assert len(roots) == len(poly) - 1


@st.composite
def _field_and_cyclotomic_index(draw):
    q = draw(st.sampled_from(_PRIMES + (13,)))
    r = draw(st.integers(1, 6).filter(lambda r: q ** r <= 3000))
    k = draw(st.integers(1, 39))
    if draw(st.booleans()):
        k = k * q if k * q < 40 else q  # ramified: q | k
    return FiniteField.create(q, r), k


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_field_and_cyclotomic_index())
def test_cyclotomic_roots_match_oracle(case):
    F, k = case
    phi_k = cyclotomic_polynomial(k)
    assert _roots(phi_k, F) == ffield_oracle.roots_in_field(phi_k, F)


def test_cyclotomic_roots_above_enumeration_cap():
    F = FiniteField.create(7, 6)  # 117649 elements, too many to enumerate
    roots = _roots(cyclotomic_polynomial(4), F)
    assert roots == ffield_oracle.roots_in_field(cyclotomic_polynomial(4), F)
    assert [ffield_oracle.multiplicative_order(F, z) for z in roots] == [4, 4]


def test_characteristic_two_splitting_terminates():
    """In characteristic 2 the probe (y + c)^((|F|-1)/2) - 1 of odd
    characteristic is constant, so the split must use the trace map."""
    assert _roots([0, 1, 1], FiniteField.create(2, 1)) == [(0,), (1,)]
    roots = _roots(cyclotomic_polynomial(7), FiniteField.create(2, 3))
    F = FiniteField.create(2, 3)
    assert roots == ffield_oracle.roots_in_field(cyclotomic_polynomial(7), F) and len(roots) == 6


# ------------------------------------- roots read off without a splitting search

_ODD_PRIMES_TO_101 = tuple(q for q in range(3, 102) if is_prime(q))


@pytest.mark.parametrize("q", _ODD_PRIMES_TO_101)
@settings(max_examples=12, deadline=None, derandomize=True)
@given(data=st.data())
def test_quadratic_roots_in_F_q2_match_the_search(q, data):
    """The roots of an irreducible monic quadratic u over F_q in F_{q^2},
    read off the field's generator, are the Frobenius orbit of the root that
    the splitting search finds, and each is a root of u."""
    b = data.draw(st.integers(0, q - 1))
    c = data.draw(st.integers(0, q - 1).filter(
        lambda c: ffield_oracle._irreducible_modq([c, b, 1], q)))
    F = FiniteField.create(q, 2)
    roots = ffield._quadratic_roots((c, b, 1), F)
    x = ffield._one_root((c, b, 1), 2, F, random.Random(q))
    assert sorted(roots) == sorted([x, F.frob(x)])
    for y in roots:
        assert not any(F.add(F.mul(F.add(y, F.from_int(b)), y), F.from_int(c)))


@st.composite
def _product_of_small_factors(draw):
    """F_{q^r} and an integer product of 1 to 4 random factors of degree 1, 2
    or 3, each with a lead coefficient 1 or a random unit mod q."""
    q = draw(st.sampled_from((3, 5, 7, 11, 13, 73)))
    r = draw(st.sampled_from((1, 2, 4, 6)))
    poly = [1]
    for _ in range(draw(st.integers(1, 4))):
        lead = draw(st.sampled_from((1, draw(st.integers(1, q - 1)) * draw(st.sampled_from((1, -1))))))
        factor = draw(st.lists(st.integers(-30, 30), min_size=1, max_size=3)) + [lead]
        poly = polys.mul(poly, factor)
    return FiniteField.create(q, r), list(poly)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_product_of_small_factors())
def test_roots_in_field_matches_roots_oracle_on_small_factors(case):
    """Linear and F_{q^2} quadratic roots read directly, and the search for
    the rest, against the former gcd search (enumeration up to its cap)."""
    F, poly = case
    assert _roots(poly, F) == roots_oracle.roots_in_field(poly, F)


@pytest.mark.parametrize("q, r, poly, searches", [
    (2, 2, [1, 1, 1], 1),  # y^2 + y + 1 over F_2: q = 2 keeps the search
    (7, 2, polys.mul([1, 0, 1], [2, -3, 1]), 0),  # (y^2 + 1)(y - 1)(y - 2)
    (7, 4, polys.mul([1, 0, 1], [2, -3, 1]), 1),  # a quadratic in F_{7^4}
    (7, 6, [-2, 0, 0, 1], 1),  # y^3 - 2, irreducible over F_7
])
def test_only_the_remaining_factors_take_the_search(monkeypatch, q, r, poly, searches):
    """Linear factors, and quadratics in F_{q^2} for odd q, take no splitting
    search; quadratics over F_2 or in F_{q^r} with r > 2, and factors of
    degree >= 3, take one each.  The roots match the former gcd search."""
    F = FiniteField.create(q, r)
    calls = count_calls(monkeypatch, ffield, "_one_root")
    roots = _roots(poly, F)
    assert calls == {"_one_root": searches}
    assert roots == roots_oracle.roots_in_field(poly, F) and roots


# ------------------------------- one factorization mod q, Frobenius as a map

_PRIMES_TO_13 = _PRIMES + (13,)


@st.composite
def _field_and_element(draw):
    q = draw(st.sampled_from(_PRIMES_TO_13))
    r = draw(st.integers(1, 6))
    return FiniteField.create(q, r), draw(st.tuples(*[st.integers(0, q - 1)] * r))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(_field_and_element())
def test_frobenius_and_norm_inverse_match_powers(case):
    """frob is a -> a^q, and the inverse by the norm is the former a^(|F| - 2)."""
    F, a = case
    assert F.frob(a) == F.pow(a, F.q)
    fermat = ffield_oracle.FermatField(F.q, F.r, F.modulus)
    if not any(a):
        for field in (F, fermat):
            with pytest.raises(ZeroDivisionError):
                field.inv(a)
        return
    assert F.inv(a) == fermat.inv(a)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_PRIMES_TO_13).flatmap(
    lambda q: st.tuples(st.builds(FiniteField.create, st.just(q), st.integers(1, 6)),
                        _int_poly(q))))
def test_roots_from_one_factorization_match_gcd_oracle(case):
    """Roots read off factor_mod_q against the former gcd(f, y^|F| - y)
    search with the former inverse; the polynomials are non-monic mod q and
    often have repeated factors (q | discriminant)."""
    F, poly = case
    want = ffield_oracle.roots_by_gcd(poly, ffield_oracle.FermatField(F.q, F.r, F.modulus))
    assert roots_in_field(factor_mod_q(poly, F.q), F) == want


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_PRIMES_TO_13).flatmap(lambda q: st.tuples(st.just(q), _int_poly(q))))
def test_factor_mod_q_gives_the_distinct_irreducible_factors(case):
    """Each factor is monic and irreducible (Rabin's test in the oracle, which
    is right above degree 1), and their product P is the distinct part of f
    mod q: P divides f, and f divides P^deg f."""
    q, poly = case
    factors = factor_mod_q(poly, q)
    assert factors == sorted(set(factors))
    product = [1]
    for e, u in factors:
        assert len(u) == e + 1 and u[-1] == 1
        assert e == 1 or ffield_oracle._irreducible_modq(list(u), q)
        product = ffield_oracle._polmul(product, list(u), q)
    f = [c % q for c in poly]
    while not f[-1]:
        f.pop()
    assert ffield_oracle._polmod(f, product, q) == []
    assert ffield_oracle._polpowmod(product, len(f) - 1, f, q) == []


def test_constant_and_vanishing_polynomials_keep_their_results():
    """A nonzero constant mod q has no roots and no factorization; a
    polynomial that vanishes mod q has neither roots nor factors.  Roots are
    read off a factorization, and factor_mod_q refuses both."""
    for q, r in ((2, 1), (2, 3), (7, 3), (13, 2)):
        F = FiniteField.create(q, r)
        fermat = ffield_oracle.FermatField(q, r, F.modulus)
        for poly in ([1], [q + 3], [5, q, 2 * q]):
            assert ffield_oracle.roots_by_gcd(poly, fermat) == []
            with pytest.raises(DomainError, match="constant"):
                factor_mod_q(poly, q)
        for poly in ([], [0], [q], [q, 0, 3 * q]):
            with pytest.raises(DomainError, match="vanishes"):
                ffield_oracle.roots_by_gcd(poly, fermat)
            with pytest.raises(DomainError, match="constant"):
                factor_mod_q(poly, q)


@pytest.mark.parametrize("q", [4, 9, 0, 1, -3, -7, 561])
def test_factor_mod_q_refuses_a_modulus_that_is_not_prime(q):
    """Factoring mod q needs the field F_q: every other modulus is refused
    with the DomainError that conway_style_modulus raises."""
    for poly in ([-2, 0, 1], [1, 1]):
        with pytest.raises(DomainError, match=f"^{q} is not prime$"):
            factor_mod_q(poly, q)


# ---------------------------------------------------------- factoring over Z


def _irreducible_mod_some_prime(f):
    """A monic f that stays irreducible mod some small prime is irreducible over Z."""
    return any(_degrees(f, q) == [len(f) - 1] for q in (2, 3, 5, 7, 11, 13))


def _bundled_field_polys():
    from eiscong.newforms import bundled_newforms

    return sorted({tuple(r.field_poly) for N in (121, 234, 725) for r in bundled_newforms(N)})


_IRREDUCIBLES = st.one_of(
    st.integers(1, 20).map(cyclotomic_polynomial),
    st.sampled_from(_bundled_field_polys()),
    st.lists(st.integers(-9, 9), min_size=1, max_size=5)
    .map(lambda c: tuple(c) + (1,)).filter(_irreducible_mod_some_prime),
)


def _descending_key(g):
    return (len(g), g[::-1])


@settings(max_examples=80, deadline=None, derandomize=True)
@given(st.lists(st.tuples(_IRREDUCIBLES, st.integers(1, 3)), min_size=1, max_size=3))
def test_factor_over_z_recovers_products(parts):
    """A product of known irreducibles with multiplicities 1-3 factors back
    into exactly that multiset, sorted by degree and descending coefficients."""
    expected = {}
    for g, m in parts:
        expected[tuple(g)] = expected.get(tuple(g), 0) + m
    f = [1]
    for g, m in expected.items():
        for _ in range(m):
            f = polys.mul(f, list(g))
    got = ffield.factor_over_z(f)
    assert {tuple(g): m for g, m in got} == expected
    assert [g for g, _ in got] == sorted((list(g) for g in expected), key=_descending_key)


def _first_squarefree_prime(f):
    """The first prime l >= 3 that keeps f squarefree: the degrees of the
    distinct factors of f mod l add up to deg f."""
    return next(ell for ell in range(3, 10 ** 4)
                if is_prime(ell) and sum(_degrees(f, ell)) == len(f) - 1)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(_IRREDUCIBLES.map(tuple), min_size=1, max_size=4, unique=True))
def test_zassenhaus_lifts_from_the_first_squarefree_prime(parts):
    """_zassenhaus lifts the factors of f mod the first prime l >= 3 that
    keeps f squarefree, also when f is irreducible mod l, and returns the
    irreducibles f was built from."""
    f = [1]
    for g in parts:
        f = polys.mul(f, list(g))
    lifts = []  # (l, the factors mod l) of every lift, the first one's included
    lift_all = ffield._lift_all
    ffield._lift_all = lambda f, factors, ell, top: (lifts.append((ell, factors))
                                                     or lift_all(f, factors, ell, top))
    try:
        got = ffield._zassenhaus(f)
    finally:
        ffield._lift_all = lift_all
    ell = _first_squarefree_prime(f)
    assert lifts[0] == (ell, [list(u) for _, u in factor_mod_q(f, ell)])
    assert sorted(map(tuple, got)) == sorted(parts)


def test_factor_over_z_edges():
    assert ffield.factor_over_z([1]) == []
    assert ffield.factor_over_z([0, 0, 0, 1]) == [([0, 1], 3)]
    # irreducible over Z, reducible mod every prime
    assert ffield.factor_over_z([1, 0, 0, 0, 1]) == [([1, 0, 0, 0, 1], 1)]
    # x^4 + 4 = (x^2 - 2x + 2)(x^2 + 2x + 2), Sophie Germain
    assert ffield.factor_over_z([4, 0, 0, 0, 1]) == [([2, -2, 1], 1), ([2, 2, 1], 1)]
    with pytest.raises(DomainError):
        ffield.factor_over_z([1, 2])


def test_factor_over_z_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.symbols("x")
    rng = random.Random(11)
    for _ in range(40):
        f = [1]
        for _ in range(rng.randint(1, 4)):
            g = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))] + [1]
            for _ in range(rng.randint(1, 2)):
                f = polys.mul(f, g)
        _, ref = sympy.Poly(f[::-1], x).factor_list()
        ref = sorted(([int(c) for c in p.all_coeffs()[::-1]], m) for p, m in ref)
        assert sorted(ffield.factor_over_z(f)) == ref
