import hashlib
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

import cusps_oracle
from helpers import character_with_value, random_pgood_params

from eiscong.arith import DomainError, divisors, euler_phi, prime_divisors, valuation
from eiscong.characters import enumerate_characters, gauss_sum, quadratic_character
from eiscong.cusps import (Cusp, CuspDivisor, D_NML, D_divisor,
                           DivisorUndefinedError, beta_constant, beta_tilde,
                           boundary_divisor, closed_form_boundary, cusp_count,
                           cusp_from_fraction, enumerate_cusps,
                           _cusp_map, _table, pullback_pi_l, pullback_pi_paren,
                           verify_boundary)
from eiscong.cyclotomic import CyclotomicField
from eiscong.eisenstein import EisensteinParams
from eiscong.scanner import eisenstein_basis


def test_cusp_counts_up_to_1000():
    for N in range(1, 1001):
        assert cusp_count(N) == sum(euler_phi(gcd(d, N // d)) for d in divisors(N))
    for N in (11, 121, 4, 234, 725):
        assert len(enumerate_cusps(N)) == cusp_count(N)
    assert len(enumerate_cusps(11)) == 2
    assert len(enumerate_cusps(121)) == 12
    assert len(enumerate_cusps(4)) == 3


def test_normal_form_against_equivalence_oracle():
    rng = random.Random(17)
    for N in (12, 28, 45, 121, 90):
        # the cusp classifier agrees with the classical equivalence criterion
        fracs = []
        for _ in range(40):
            b = rng.randrange(0, 3 * N)
            a = rng.randrange(1, 3 * N)
            if gcd(a, b) != 1:
                continue
            fracs.append((a, b))
        for f1 in fracs:
            for f2 in fracs:
                same_class = cusp_from_fraction(N, *f1) == cusp_from_fraction(N, *f2)
                assert same_class == cusps_oracle.gamma0_equivalent(N, f1, f2), (N, f1, f2)


def test_normal_form_gamma0_invariance():
    rng = random.Random(23)
    for N in (12, 121, 234):
        for _ in range(40):
            a = rng.randrange(1, 4 * N)
            b = rng.randrange(0, 4 * N)
            if gcd(a, b) != 1:
                continue
            # gamma = [[p, q], [r*N, s]] with det 1
            r = rng.randrange(-3, 4)
            if r == 0:
                p, q, s = 1, rng.randrange(-5, 6), 1
            else:
                p = rng.randrange(1, 12)
                while gcd(p, r * N) != 1:
                    p += 1
                g, s, q = _xgcd(p, -r * N)
                assert g == 1
            assert p * s - q * r * N == 1
            a2, b2 = p * a + q * b, r * N * a + s * b
            assert cusp_from_fraction(N, a, b) == cusp_from_fraction(N, a2, b2)


def _xgcd(a, b):
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def test_ram_index_and_width():
    assert cusp_from_fraction(121, 1, 11).ram_index() == 1
    assert cusp_from_fraction(725, 1, 5).ram_index() == 29
    assert cusp_from_fraction(121, 1, 121).ram_index() == 1   # infinity
    assert cusp_from_fraction(11, 0, 1).ram_index() == 11      # the cusp 0
    assert cusp_from_fraction(121, 1, 11).t == 11
    assert cusp_from_fraction(242, 1, 11).t == 11
    assert cusp_from_fraction(121, 1, 121).t == 1


def test_ram_ratio_two_implementations():
    """e(pi_(l); x, y) = e_{Gamma0(Al)}(x) / e_{Gamma0(A)}(y) equals the
    closed-form case split (l when nu_l(d) <= nu_l(A/d), else 1), checked on
    all cusps of all levels <= 400."""
    for l in (2, 3, 5):
        for A in range(1, 401):
            Al = A * l
            for c in enumerate_cusps(Al):
                a, b = c.canonical_rep()
                y = cusp_from_fraction(A, a, b)
                ratio = Fraction(c.ram_index(), y.ram_index())
                assert ratio.denominator == 1
                d = y.d
                closed = l if valuation(d, l) <= valuation(A // d, l) else 1
                # the ratio formula is per preimage cusp; the closed form is
                # stated for the (1:d)-type cusps, where both must agree
                if c.d == d or c.d == d * l ** valuation(c.d // gcd(c.d, d), l):
                    pass
                if c.d == d:
                    assert int(ratio) == closed, (A, l, c)


def test_pullback_degree_equals_index():
    """deg(pi^* D) = [Gamma0(A) : Gamma0(Al)] deg(D) for both coverings on
    every level <= 200 (random integer divisors)."""
    rng = random.Random(31)
    K1 = CyclotomicField(1)
    for A in range(1, 201):
        l = rng.choice((2, 3, 5))
        index = l + 1 if A % l else l
        support = {}
        for c in enumerate_cusps(A):
            v = rng.randrange(-4, 5)
            if v:
                support[c] = K1.from_rational(v)
        D = CuspDivisor(A, support)
        deg = D.degree()
        d1 = pullback_pi_paren(D, l).degree()
        d2 = pullback_pi_l(D, l).degree()
        assert d1 == deg * index, (A, l, "pi_(l)")
        assert d2 == deg * index, (A, l, "pi_l")


def test_pullbacks_match_oracle():
    """Both pullbacks equal the former matrix-based ones on every cusp of
    X0(Al), for A <= 150 and l <= 13, on a divisor whose coefficient differs
    from cusp to cusp."""
    K1 = CyclotomicField(1)
    for A in range(1, 151):
        D = CuspDivisor(A, {c: K1.from_rational(i + 1)
                            for i, c in enumerate(enumerate_cusps(A))})
        for l in (2, 3, 5, 7, 11, 13):
            got, want = pullback_pi_paren(D, l), cusps_oracle.pullback_pi_paren(D, l)
            assert len(got.support) == len(enumerate_cusps(A * l)), (A, l)
            assert _same_divisor(got, want), (A, l, "pi_(l)")
            assert _same_divisor(pullback_pi_l(D, l), cusps_oracle.pullback_pi_l(D, l)), \
                (A, l, "pi_l")


def test_pullback_refuses_a_composite_on_every_call():
    """The cusp map of a covering is kept per process, but a failed build is
    not: a non-prime l is refused on each call."""
    D = D_divisor(121, 11, quadratic_character(11))
    for _ in range(2):
        with pytest.raises(DomainError):
            pullback_pi_l(D, 4)


def test_D_divisor_basics():
    phi = quadratic_character(11)
    D = D_divisor(121, 11, phi)
    assert len(D.support) == 10
    assert D.degree().is_zero()
    vals = sorted(v.rational_value() for v in D.support.values())
    assert vals == [-1] * 5 + [1] * 5
    # conductor condition violated
    with pytest.raises(DivisorUndefinedError):
        D_divisor(121, 1, phi)
    with pytest.raises(DivisorUndefinedError):
        D_divisor(22, 11, phi)
    # degree = sum of phi over units = 0 for nontrivial phi
    phi10 = character_with_value(11, 2, 10, 1)
    assert D_divisor(121, 11, phi10).degree().is_zero()
    # f^2 case of the appendix proposition: euler_phi(f) cusps
    assert len(D_divisor(49, 7, quadratic_character(7)).support) == 6


def test_pullback_four_case_table():
    """The four cases of the covering pullback table, against the generic
    cusp-level implementation."""
    phi = quadratic_character(3)

    def DD(N, d):
        return D_divisor(N, d, phi)

    # case l coprime to A and d: pi_(l)* D_{A,d} = l D + phi(l) D_{dl}
    A, d, l = 9, 3, 2
    lhs = pullback_pi_paren(DD(A, d), l)
    rhs = DD(A * l, d).scale(l) + DD(A * l, d * l).scale(phi.value(l))
    assert lhs == rhs
    # pi_l* D_{A,d} = l D_{dl} + phi(l) D_d
    lhs = pullback_pi_l(DD(A, d), l)
    rhs = DD(A * l, d * l).scale(l) + DD(A * l, d).scale(phi.value(l))
    assert lhs == rhs
    # case l | A/d, nu_l(d) <= nu_l(A/d): pi_(l)* = l D_d
    A, d, l = 18, 3, 2
    assert pullback_pi_paren(DD(A, d), l) == DD(A * l, d).scale(l)
    # case l | d, nu_l(A/d) <= nu_l(d): pi_l* = l D_{dl}
    A, d, l = 18, 6, 2
    assert pullback_pi_l(DD(A, d), l) == DD(A * l, d * l).scale(l)
    # case l | A/d, nu_l(d) > nu_l(A/d): pi_(l)* = D_d
    A, d, l = 288, 24, 2  # nu_2(24) = 3 > nu_2(12) = 2
    assert pullback_pi_paren(DD(A, d), l) == DD(A * l, d)
    # case l not dividing d, l | A/d for pi_l*: D_{dl} + phi(l) D_d
    A, d, l = 18, 3, 2
    lhs = pullback_pi_l(DD(A, d), l)
    rhs = DD(A * l, d * l) + DD(A * l, d).scale(phi.value(l))
    assert lhs == rhs


def test_beta_tilde_goldens_121_234():
    phi = quadratic_character(11)
    assert beta_tilde(EisensteinParams(phi, 121, 1, 1)) == gauss_sum(phi) * 605
    phi3 = quadratic_character(3)
    t3 = gauss_sum(phi3)
    for (M, L), c in [((1, 26), 36), ((2, 13), 108), ((26, 1), 1512), ((13, 2), 504)]:
        assert beta_tilde(EisensteinParams(phi3, 234, M, L)) == t3 * c, (M, L)


def test_beta_tilde_goldens_725():
    phi2 = quadratic_character(5)
    t2 = gauss_sum(phi2)
    assert beta_tilde(EisensteinParams(phi2, 725, 1, 29)) == t2 * 700
    assert beta_tilde(EisensteinParams(phi2, 725, 29, 1)) == t2 * 21000
    for e in (1, 3):
        phi = character_with_value(5, 2, 4, 1).power(e)
        tinv = gauss_sum(phi.inverse())
        m = 20
        prodt = t2.embed(m) * tinv.embed(m)
        assert beta_tilde(EisensteinParams(phi, 725, 1, 29)) == prodt * 140
        # the (M,L) = (29,1) value from the displayed unsimplified expression
        # (5^4 * 29^2 / (4*5)) * (tau(phi^{-1}) / sqrt 5) * (4/5) * (1 - 1/29^2)
        want = (
            tinv.embed(m)
            / t2.embed(m)
            * Fraction(5 ** 4 * 29 ** 2, 20)
            * Fraction(4, 5)
            * (1 - Fraction(1, 29 ** 2))
        )
        got = beta_tilde(EisensteinParams(phi, 725, 29, 1))
        assert got == want
        assert got == prodt * 4200  # 30x the (1,29) value, as in the quadratic pair


def test_beta_tilde_order_ten_121():
    phi = character_with_value(11, 2, 10, 1)
    xi = (phi * phi).primitive_part()
    from eiscong.characters import bernoulli_B2

    m = 110
    want = (
        gauss_sum(phi.inverse()).embed(m)
        * gauss_sum(xi).embed(m)
        * bernoulli_B2(xi.inverse()).embed(m)
        * Fraction(121, 4)
    )
    assert beta_tilde(EisensteinParams(phi, 121, 1, 1)) == want


def test_boundary_121():
    phi = quadratic_character(11)
    P = EisensteinParams(phi, 121, 1, 1)
    D = boundary_divisor(P)
    assert D == D_divisor(121, 11, phi).scale(gauss_sum(phi) * 55)
    assert D.degree().is_zero()
    # the coefficient at infinity is 0
    inf = cusp_from_fraction(121, 1, 0)
    assert D.coefficient(inf).is_zero()


def test_verify_boundary_paper_sets():
    phi3 = quadratic_character(3)
    for (M, L) in [(1, 26), (2, 13), (26, 1), (13, 2)]:
        assert verify_boundary(EisensteinParams(phi3, 234, M, L))
    for phi in [c for c in enumerate_characters(5) if not c.is_trivial()]:
        for (M, L) in [(1, 29), (29, 1)]:
            assert verify_boundary(EisensteinParams(phi, 725, M, L))
    for phi in [c for c in enumerate_characters(11) if not c.is_trivial()][:3]:
        assert verify_boundary(EisensteinParams(phi, 121, 1, 1))


def test_verify_boundary_randomized_pgood():
    from helpers import random_pgood_params

    rng = random.Random(99)
    for P in random_pgood_params(rng, 25):
        assert verify_boundary(P), P.label()


def test_verify_boundary_detects_mutation():
    phi = quadratic_character(11)
    P = EisensteinParams(phi, 121, 1, 1)
    lhs = boundary_divisor(P)
    rhs = closed_form_boundary(P)
    # flip the sign of one coefficient in the closed form
    cusp, val = next(iter(sorted(rhs.support.items(), key=lambda kv: (kv[0].d, kv[0].x))))
    mutated = CuspDivisor(rhs.level, {**rhs.support, cusp: -val})
    assert lhs == rhs
    assert lhs != mutated
    assert lhs.first_mismatch(mutated) == cusp


def test_divisor_support_rationality_pgood():
    """Divisors of p-good parameter sets live on Q(zeta_p)-rational cusps."""
    from helpers import random_pgood_params

    rng = random.Random(7)
    for P in random_pgood_params(rng, 8):
        D = boundary_divisor(P)
        p = P.f
        for c in D.support:
            assert p % c.t == 0, (P.label(), c)


def test_twelve_beta_tilde_integral():
    """12*beta-tilde lies in Z[zeta_f, phi] for 100 random valid parameter sets."""
    from helpers import random_valid_params

    rng = random.Random(47)
    for P in random_valid_params(rng, 100):
        bt = beta_tilde(P) * 12
        assert bt.is_integral(), (P.label(), str(bt))


def test_verify_boundary_general_parameters():
    """The boundary theorem holds beyond p-good levels: refinement prime
    powers, p | f slashes and promotions, squared promotion primes, and even
    conductors (the general-recursion bookkeeping is the sensitive part)."""
    chi4 = next(c for c in enumerate_characters(4) if c.is_primitive())
    chi8 = next(c for c in enumerate_characters(8) if c.is_primitive() and c.order == 2)
    chi9 = next(c for c in enumerate_characters(9) if c.is_primitive())
    cases = [
        (quadratic_character(3), 9 * 8, 8, 1),        # nu_2(M) = 3
        (quadratic_character(3), 9 * 16, 1, 16),      # nu_2(L) = 4
        (quadratic_character(3), 9 * 4 * 25, 4, 25),
        (quadratic_character(3), 9 * 3 * 5, 1, 5),    # delta_3 = 1 promotion
        (quadratic_character(3), 9 * 9 * 5, 9, 5),    # nu_3(M) = n_3 = 2
        (quadratic_character(3), 9 * 2 * 49, 1, 2),   # squared promotion prime
        (character_with_value(5, 2, 4, 1), 100, 4, 1),
        (chi4, 144, 9, 1),
        (chi8, 192, 3, 1),
        (chi9, 162, 1, 2),                            # f = 9, order-6 character
        (quadratic_character(3), 27, 1, 1),
        (quadratic_character(3), 54, 3, 2),
    ]
    for phi, N, M, L in cases:
        P = EisensteinParams(phi, N, M, L)
        assert verify_boundary(P), P.label()
    for P in _promotion_params():
        assert verify_boundary(P), P.label()


def _promotion_params():
    """Parameter sets with nu_l(N) > nu_l(M) at some l | T1 or nu_q(N) > nu_q(L)
    at some q | T2, so the alpha and beta tables run promotion steps."""
    phi3, phi5 = quadratic_character(3), character_with_value(5, 2, 4, 1)  # phi5 of order 4
    return [EisensteinParams(*case) for case in [
        (phi3, 36, 2, 1),      # alpha promotion at 2
        (phi3, 36, 1, 2),      # beta promotion at 2 in S_phi
        (phi3, 144, 1, 4),     # beta slash, then two promotions at 2
        (phi3, 3528, 2, 7),    # alpha promotions at 2, beta promotion at 7 in S_phi
        (phi5, 100, 2, 1),     # alpha promotion at 2, phi(2) = zeta_4
        (phi5, 100, 1, 2),     # beta promotion at 2 outside S_phi
        (phi5, 1800, 4, 3),    # alpha slash and promotion at 2, beta promotion at 3
        (phi5, 2700, 3, 4),    # two alpha promotions at 3
    ]]


def _reprs(coeffs):
    """The coefficient representations (field, num, den) of a dict of CycElements."""
    return {k: (v.field, v.num, v.den) for k, v in coeffs.items()}


def _same_divisor(a, b):
    """Equal divisors with equal coefficient representations at every cusp."""
    return a.level == b.level and _reprs(a.support) == _reprs(b.support)


def _oracle_table(P, p):
    if P.T1 % p == 0:
        return cusps_oracle._alpha_table(P, p)
    if P.T2 % p == 0:
        return cusps_oracle._beta_table(P, p)
    return cusps_oracle._gamma_table(P, p)


def _check_beta_against_oracle(P):
    beta = beta_constant(P)
    want = cusps_oracle.beta_constant(P)
    assert (beta.field, beta.num, beta.den) == (want.field, want.num, want.den), P.label()
    for p in prime_divisors(P.N):
        if P.f % p:
            assert _reprs(_table(P, p)) == _reprs(_oracle_table(P, p)), (P.label(), p)
    assert _same_divisor(D_NML(P), cusps_oracle.D_NML(P)), P.label()
    assert _same_divisor(closed_form_boundary(P), cusps_oracle.closed_form_boundary(P)), P.label()
    assert verify_boundary(P).ok


def test_beta_matches_oracle_on_eigenbases():
    """beta, the alpha/beta/gamma tables, D_NML and the closed form agree
    with the former code on the 19 eigenbasis series at 121, 234 and 725."""
    for P in _eigenbasis():
        _check_beta_against_oracle(P)


def test_beta_matches_oracle_with_promotions():
    """The alpha/beta/gamma tables, D_NML and the closed form agree with the
    former code where the alpha and beta tables run promotion steps."""
    for P in _promotion_params():
        _check_beta_against_oracle(P)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.randoms(use_true_random=False))
def test_beta_matches_oracle_on_random_pgood_params(rng):
    for P in random_pgood_params(rng, 2):
        _check_beta_against_oracle(P)


def _eigenbasis():
    basis = [P for N, p in ((121, 11), (234, 3), (725, 5)) for P in eisenstein_basis(N, p)]
    assert len(basis) == 19
    return basis


def _nonreal_xi_params():
    """Sets with a prime l | T1 where xi(l) is not real, so the Euler factor
    (1 - xi(l)/l^2) of beta is not fixed by complex conjugation."""
    phi7, phi11 = character_with_value(7, 3, 6, 1), character_with_value(11, 2, 10, 1)
    return [EisensteinParams(*case) for case in [
        (phi7, 98, 2, 1),      # xi of order 3, xi(2) = zeta_3^2
        (phi7, 588, 4, 3),     # alpha slash at 2, beta table at 3
        (phi11, 363, 3, 1),    # xi of order 5, xi(3) = zeta_5^3
        (phi11, 1089, 3, 1),   # alpha promotion at 3
    ]]


def _oracle_sets():
    """The 19 eigenbasis series, 40 seeded random p-good sets, the sets whose
    tables run promotions and the sets with a non-real xi(l), l | T1."""
    return (_eigenbasis() + random_pgood_params(random.Random(15), 40) + _promotion_params()
            + _nonreal_xi_params())


def test_boundary_divisor_matches_oracle():
    """The recursion run in Q(zeta_k) and scaled by beta at the end gives the
    divisor, field, num and den at every cusp, of the former recursion that
    scales first, on the oracle sets."""
    for P in _oracle_sets():
        got, want = boundary_divisor(P), cusps_oracle.boundary_divisor(P)
        assert got.support and _same_divisor(got, want), P.label()


def test_boundary_divisor_matches_oracle_cold_and_warm():
    """The cusp maps are kept per process: built afresh, and then read back,
    they give the former recursion's divisor on every cusp."""
    sets = _eigenbasis() + _promotion_params() + _nonreal_xi_params()
    _cusp_map.cache_clear()
    for _ in ("cold", "warm"):
        for P in sets:
            got, want = boundary_divisor(P), cusps_oracle.boundary_divisor(P)
            assert got.support and _same_divisor(got, want), P.label()


def test_verify_boundary_matches_oracle():
    """The check in Q(zeta_k) gives the former scaled comparison's ok and
    mismatch cusp, and beta is its Gauss-sum core times _beta_rho, field,
    num and den, on the oracle sets."""
    from eiscong import cusps

    for P in _oracle_sets():
        got, want = verify_boundary(P), cusps_oracle.verify_boundary(P)
        assert (got.ok, got.mismatch_cusp) == (want.ok, want.mismatch_cusp), P.label()
        core = cusps._beta_core(P.phi)
        beta, oracle = core * cusps._beta_rho(P).embed(core.field.m), cusps_oracle.beta_constant(P)
        assert (beta.field, beta.num, beta.den) == (oracle.field, oracle.num, oracle.den), P.label()


def test_verify_boundary_mutation_matches_oracle(monkeypatch):
    """With one coefficient of D_NML tripled, the check and the former
    scaled comparison both fail, at that cusp, on every eigenbasis series."""
    from eiscong import cusps

    real_D_NML = cusps.D_NML
    mutated = {}

    def tripled(P):
        D = real_D_NML(P)
        c = max(D.support, key=lambda k: (k.d, k.x))
        mutated[P] = c
        return CuspDivisor(D.level, {**D.support, c: D.support[c] * 3})

    monkeypatch.setattr(cusps, "D_NML", tripled)
    monkeypatch.setattr(cusps_oracle, "D_NML", tripled)
    for P in _eigenbasis():
        got = cusps.verify_boundary(P)
        want = cusps_oracle.verify_boundary(P)
        assert not got.ok and not want.ok, P.label()
        assert got.mismatch_cusp == want.mismatch_cusp == mutated[P], P.label()


def test_verify_boundary_stays_off_the_gauss_sum_core(monkeypatch):
    """verify_boundary needs no factor of beta that lives in Q(zeta_lcm(f,k))."""
    from eiscong import cusps

    def refuse(phi):
        raise AssertionError("verify_boundary computed the Gauss-sum core")

    monkeypatch.setattr(cusps, "_beta_core", refuse)
    cusps._beta_start.cache_clear()
    for P in _eigenbasis():
        assert cusps.verify_boundary(P)


def test_divisor_difference_by_coefficient():
    """a - b subtracts coefficient by coefficient: it equals a + (-1) b in
    every coefficient's representation and drops the cusps that cancel."""
    phi = character_with_value(11, 2, 10, 1)
    a = boundary_divisor(EisensteinParams(phi, 121, 1, 1))
    b = D_divisor(121, 11, phi)
    up, scaled = pullback_pi_paren(b, 11), pullback_pi_l(b, 11)
    assert set(up.support) != set(scaled.support)
    for x, y in ((a, b), (b, a), (a, a.scale(2)), (b, CuspDivisor(121)), (up, scaled),
                 (scaled, up)):
        assert _same_divisor(x - y, x + y.scale(-1))
    assert not (a - a).support
    c = next(iter(b.support))
    half = CuspDivisor(121, {c: b.support[c]})
    assert set((b - half).support) == set(b.support) - {c}


def test_D_divisor_checked_once_per_argument_triple(monkeypatch):
    """Over two verify_boundary passes on the eigenbases, _assert_well_defined
    runs once for each distinct (N, d, phi) that D_divisor is asked for."""
    from eiscong import cusps

    real_check, real_D = cusps._assert_well_defined, cusps.D_divisor
    checked, asked = [], set()

    def check(N, d, phi, support):
        checked.append((N, d, phi))
        real_check(N, d, phi, support)

    def counting_D(N, d, phi):
        asked.add((N, d, phi))
        return real_D(N, d, phi)

    monkeypatch.setattr(cusps, "_assert_well_defined", check)
    monkeypatch.setattr(cusps, "D_divisor", counting_D)
    cusps._D_support.cache_clear()
    for _ in range(2):
        for P in _eigenbasis():
            assert cusps.verify_boundary(P)
    assert len(asked) > 19
    assert len(checked) == len(set(checked)) == len(asked)


def test_D_divisor_returns_a_fresh_copy():
    """Changing the support of a returned divisor leaves the next D_divisor
    result unchanged."""
    phi = quadratic_character(11)
    first = D_divisor(121, 11, phi)
    want = _reprs(first.support)
    c = next(iter(first.support))
    first.support[c] = first.support[c] * 3
    del first.support[next(c2 for c2 in first.support if c2 != c)]
    first.support[Cusp(121, 1, 1)] = CyclotomicField(2).one()
    again = D_divisor(121, 11, phi)
    assert _reprs(again.support) == want
    assert again.support is not first.support


@pytest.mark.parametrize("N,count,digest", [
    (121, 12, "ba220bb09a800ae3fb767488a30521311dd4a79208cdeef591e7afdab976789e"),
    (234, 16, "7bd338fd27ab72fc16a459e6b644d077f97206a4a86338333d016d44c8312c53"),
    (725, 12, "4dc1add95bc092244a942693db96e41783ec0665677c0d3732039d21b505face"),
])
def test_cusp_order_hash_and_repr(N, count, digest):
    """Cusps sort and hash as their (level, d, x) tuples; the sorted reprs are
    those the cusps had as a dataclass."""
    cs = sorted(enumerate_cusps(N))
    assert len(cs) == count
    assert cs == sorted(enumerate_cusps(N), key=lambda c: (c.level, c.d, c.x))
    assert all(hash(c) == hash((c.level, c.d, c.x)) for c in cs)
    text = " ".join(f"{c!r}={c.d},{c.x}" for c in cs)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
