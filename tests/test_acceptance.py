"""Acceptance suite: one test per criterion, exact tolerances, timed.

Run `pytest tests/test_acceptance.py -v -s` for one pass/fail line each.
"""

import random
import time
from fractions import Fraction
from math import gcd

from eisenstein_oracle import hecke_Tl
from helpers import (character_with_value, check_gauss_identity, descriptor_at,
                     random_pgood_params, random_valid_params, scalar_multiple)
from lattice_oracle import ideal_from_element

from eiscong.arith import divisors, euler_phi, primes_up_to, sturm_bound
from eiscong.characters import (bernoulli_B1, enumerate_characters, gauss_sum,
                                quadratic_character)
from eiscong.cusps import (CuspDivisor, beta_tilde,
                           boundary_divisor, cusp_count, enumerate_cusps,
                           pullback_pi_l, pullback_pi_paren, verify_boundary)
from eiscong.cyclotomic import CyclotomicField
from eiscong.eisenstein import EisensteinParams, build_E, e_phi, tl_eigenvalue
from eiscong.ideals import candidate_characteristics, cuspidal_order
from eiscong.scanner import full_scan


def _report(criterion, started, limit, detail=""):
    elapsed = time.time() - started
    assert elapsed < limit, f"criterion {criterion} exceeded {limit}s ({elapsed:.1f}s)"
    print(f"[criterion {criterion}] PASS ({elapsed:.1f}s) {detail}")


def test_criterion_1_beta_tilde_goldens():
    t0 = time.time()
    # 121, quadratic: 5 * 11^2 * sqrt(-11)
    phi11 = quadratic_character(11)
    t1 = time.time()
    assert beta_tilde(EisensteinParams(phi11, 121, 1, 1)) == gauss_sum(phi11) * 605
    assert gauss_sum(phi11) ** 2 == CyclotomicField(11).from_rational(-11)
    assert time.time() - t1 < 1.0

    # 725: the six values
    phi2 = quadratic_character(5)
    sqrt5 = gauss_sum(phi2)
    assert sqrt5 ** 2 == CyclotomicField(5).from_rational(5)
    t1 = time.time()
    assert beta_tilde(EisensteinParams(phi2, 725, 1, 29)) == sqrt5 * 700      # 2^2 5^2 7 sqrt5
    assert beta_tilde(EisensteinParams(phi2, 725, 29, 1)) == sqrt5 * 21000    # 2^3 3 5^3 7 sqrt5
    assert time.time() - t1 < 2.0
    phi4 = character_with_value(5, 2, 4, 1)
    i_unit = phi4.value(2)
    for e in (1, 3):
        phi = phi4.power(e)
        tau_inv = gauss_sum(phi.inverse())
        # tau(phi^{-1})^4 = -15 -+ 20i: the paper's quartic radical, exactly
        m = 20
        want4 = CyclotomicField(20).from_rational(-15) + i_unit.embed(m) * (20 if e == 3 else -20)
        assert tau_inv.embed(m) ** 4 == want4
        t1 = time.time()
        got_ord = beta_tilde(EisensteinParams(phi, 725, 1, 29))
        assert got_ord == sqrt5.embed(m) * tau_inv.embed(m) * 140  # i 2^2 7 (5 sqrt5 (.)^(1/4))
        got_crit = beta_tilde(EisensteinParams(phi, 725, 29, 1))
        # the paper's unsimplified display (its final simplification drops a 6;
        # see the decisions ledger): (5^4 29^2/(4*5)) (tau/sqrt5)(4/5)(1-29^-2)
        want = (
            tau_inv.embed(m) / sqrt5.embed(m)
            * Fraction(5 ** 4 * 29 ** 2, 20) * Fraction(4, 5) * (1 - Fraction(1, 841))
        )
        assert got_crit == want
        assert got_crit == got_ord * 30  # same ratio as the verified quadratic pair
        assert time.time() - t1 < 2.0

    # 234: 36, 108, 7*216, 7*72 times sqrt(-3)
    phi3 = quadratic_character(3)
    sqrt_m3 = gauss_sum(phi3)
    assert sqrt_m3 ** 2 == CyclotomicField(3).from_rational(-3)
    for (M, L), c in [((1, 26), 36), ((2, 13), 108), ((26, 1), 7 * 216), ((13, 2), 7 * 72)]:
        t1 = time.time()
        assert beta_tilde(EisensteinParams(phi3, 234, M, L)) == sqrt_m3 * c
        assert time.time() - t1 < 1.0
    _report(1, t0, 30, "beta-tilde goldens exact")


def test_criterion_2_qexpansion_goldens():
    t0 = time.time()
    E = e_phi(quadratic_character(11), 12)
    assert [E.coefficient(n).rational_value() for n in range(1, 13)] == [
        1, -3, 4, 7, 6, -12, -8, -15, 13, -18, 0, 28,
    ]
    phi10 = character_with_value(11, 2, 10, 1)
    E10 = e_phi(phi10, 6)
    K = CyclotomicField(10)
    z10, z5 = K.zeta(1), K.zeta(2)
    assert E10.coefficient(1) == K.one()
    assert E10.coefficient(2) == z10 * (1 + 2 * z5 ** 4)
    assert E10.coefficient(3) == -(z10 ** 3) * (1 + 3 * z5 ** 2)
    assert E10.coefficient(4) == z5 * (1 + 2 * z5 ** 4 + 4 * z5 ** 3)
    assert E10.coefficient(5) == z5 ** 2 * (1 + 5 * z5)
    assert E10.coefficient(6) == -(z5 ** 2) * (1 + 2 * z5 ** 4 + 3 * z5 ** 2 + 6 * z5)
    phi3 = quadratic_character(3)
    displayed = {
        (1, 26): [1, -1, 0, 1, -6, 0, 8, -1, 0, 6, -12, 0, 1, -8, 0],
        (2, 13): [1, -2, 0, 4, -6, 0, 8, -8, 0, 12, -12, 0, 1, -16, 0],
        (26, 1): [1, -2, 0, 4, -6, 0, 8, -8, 0, 12, -12, 0, 13, -16, 0],
        (13, 2): [1, -1, 0, 1, -6, 0, 8, -1, 0, 6, -12, 0, 13, -8, 0],
    }
    for (M, L), want in displayed.items():
        E = build_E(EisensteinParams(phi3, 234, M, L), 15)
        got = [E.coefficient(n).rational_value() for n in range(1, 16)]
        assert got == want, (M, L)
    E725 = e_phi(quadratic_character(5), 15)
    assert [E725.coefficient(n).rational_value() for n in range(1, 16)] == [
        1, -3, -4, 7, 0, 12, -8, -15, 13, 0, 12, -28, -14, 24, 0,
    ]
    _report(2, t0, 10, "all displayed expansions exact")


def test_criterion_3_congruence_reproduction():
    t0 = time.time()
    # 121: E_phi = 121.2.a.d (mod 5), quadratic + order-10 conjugates
    res121 = full_scan(121, 11)
    assert res121.bound == sturm_bound(121) == 22
    hits = res121.hits
    assert {h.report.newform for h in hits} == {"121.2.a.d"}
    assert {h.report.prime for h in hits} == {5}
    assert sorted({h.params.phi.order for h in hits}) == [2, 10]
    assert len(hits) == 5

    # 725: both refinements of phi^2 = 725.2.a.b mod (3 - sqrt2) over 7;
    # phi/phi^3 refinements = 725.2.a.l with residue field F_49
    res725 = full_scan(725, 5)
    assert res725.bound == sturm_bound(725) == 150
    by_char = {}
    for h in res725.hits:
        by_char.setdefault(h.params.phi.label(), []).append(h)
    assert {h.report.newform for h in by_char["5.2.1"]} == {"725.2.a.b"}
    assert sorted(h.params.M for h in by_char["5.2.1"]) == [1, 29]
    for h in by_char["5.2.1"]:
        assert h.report.residue_degree == 1
        # the matched embedding sends sqrt2 to 3: the prime (3 - sqrt2)
        assert h.report.embedding[1] == (3,)
    for lbl in ("5.4.1", "5.4.3"):
        assert {h.report.newform for h in by_char[lbl]} == {"725.2.a.l"}
        for h in by_char[lbl]:
            assert h.descriptor.residue_field() == "F_49"

    # 234: the ord2/crit13 series = 234.2.a.b (mod 7); crit2/crit13 matches nothing
    res234 = full_scan(234, 3)
    assert res234.bound == sturm_bound(234) == 84
    assert [(h.params.M, h.params.L, h.report.newform, h.report.prime) for h in res234.hits] == [
        (13, 2, "234.2.a.b", 7)
    ]
    crit2crit13 = [r for r in res234.reports if "M=26" in r.eisenstein]
    assert len(crit2crit13) == 5 and not any(r.matched for r in crit2crit13)
    _report(3, t0, 60, "all section-7 congruences certified offline at the Sturm bound")


def test_criterion_4_order_and_ideal_correctness():
    t0 = time.time()
    phi11 = quadratic_character(11)
    order = cuspidal_order(EisensteinParams(phi11, 121, 1, 1))
    assert order == 605 ** 10 * 11 ** 5
    # independent resultant oracle: |N(605 sqrt(-11))| via norm_to_Q
    elt = gauss_sum(phi11) * 605
    assert abs(elt.norm_to_Q()) == order
    assert ideal_from_element(elt).index() == order
    assert order % 5 == 0
    # 7 divides the 725 orders of every certified series
    res = full_scan(725, 5)
    for h in res.hits:
        assert cuspidal_order(h.params) % 7 == 0, h.params.label()
    _report(4, t0, 10, "index = |norm| oracle and divisibility checks exact")


def test_criterion_5_theorem_as_oracle():
    t0 = time.time()
    phi3 = quadratic_character(3)
    for (M, L) in [(1, 26), (2, 13), (26, 1), (13, 2)]:
        assert verify_boundary(EisensteinParams(phi3, 234, M, L))
    for phi in [c for c in enumerate_characters(5) if not c.is_trivial()]:
        for (M, L) in [(1, 29), (29, 1)]:
            assert verify_boundary(EisensteinParams(phi, 725, M, L))
    for phi in [c for c in enumerate_characters(11) if not c.is_trivial()]:
        assert verify_boundary(EisensteinParams(phi, 121, 1, 1))
    rng = random.Random(20260811)
    for P in random_pgood_params(rng, 25):
        assert verify_boundary(P), P.label()
    _report(5, t0, 120, "recursion path == closed-form path on all parameter sets")


def test_criterion_6_property_suites():
    t0 = time.time()
    # Gauss sum identity for every primitive character of conductor <= 60
    for f in range(3, 61):
        for chi in enumerate_characters(f):
            if chi.is_primitive() and not chi.is_trivial():
                check_gauss_identity(chi)
    # B1 vanishes on even nontrivial characters of conductor <= 60
    for f in range(3, 61):
        for chi in enumerate_characters(f):
            if not chi.is_trivial() and chi.is_even():
                assert bernoulli_B1(chi).is_zero()
    # 12 beta-tilde integral on 100 random valid parameter sets
    rng = random.Random(6061)
    for P in random_valid_params(rng, 100):
        assert (beta_tilde(P) * 12).is_integral(), P.label()
    # Hecke eigen-verification of built series at all r <= 13, r coprime to N
    for phi, N, M, L in [
        (quadratic_character(11), 121, 1, 1),
        (character_with_value(11, 2, 10, 1), 121, 1, 1),
        (quadratic_character(5), 725, 29, 1),
        (character_with_value(5, 2, 4, 1), 725, 1, 29),
        (quadratic_character(3), 234, 13, 2),
        (quadratic_character(3), 234, 2, 13),
    ]:
        P = EisensteinParams(phi, N, M, L)
        B = 13 * 4
        E = build_E(P, B)
        for r in primes_up_to(13):
            if N % r == 0:
                continue
            lam = scalar_multiple(hecke_Tl(E, r), E, B // r)
            assert lam is not None and lam == tl_eigenvalue(phi, r).embed(lam.field.m)
    # boundary divisors have degree 0 (paper sets + randoms)
    rng = random.Random(727)
    for P in random_pgood_params(rng, 6) + [EisensteinParams(quadratic_character(3), 234, 13, 2)]:
        assert boundary_divisor(P).degree().is_zero()
    # pullback degree = coset index on all levels <= 200
    rng = random.Random(31)
    K1 = CyclotomicField(1)
    for A in range(1, 201):
        l = rng.choice((2, 3, 5))
        index = l + 1 if A % l else l
        support = {c: K1.from_rational(rng.randrange(-4, 5)) for c in enumerate_cusps(A)}
        D = CuspDivisor(A, support)
        assert pullback_pi_paren(D, l).degree() == D.degree() * index
        assert pullback_pi_l(D, l).degree() == D.degree() * index
    # cusp counts for N <= 1000
    for N in range(1, 1001):
        assert cusp_count(N) == sum(euler_phi(gcd(d, N // d)) for d in divisors(N))
    # norm multiplicativity and HNF index = |norm| on 500 random elements
    rng = random.Random(500)
    checked = 0
    for m in (5, 7, 9, 12):
        K = CyclotomicField(m)
        done = 0
        while done < 125:
            e1 = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            e2 = K.element([rng.randrange(-5, 6) for _ in range(K.degree)])
            if e1.is_zero() or e2.is_zero():
                continue
            assert (e1 * e2).norm_to_Q() == e1.norm_to_Q() * e2.norm_to_Q()
            assert ideal_from_element(e1).index() == abs(e1.norm_to_Q())
            done += 1
            checked += 1
    assert checked == 500
    _report(6, t0, 240, "all exact property suites")


DISPLAY_GOLDENS = {
    ("121", 5): (
        "<5, U_11, {T_r - 1 - r : r = 1, 3, 4, 5, 9} (mod 11), "
        "{T_r + 1 + r : r = 2, 6, 7, 8, 10} (mod 11)>"
    ),
    ("725.F7", 7): (
        "<7, U_5, U_29 - 1, {T_r - 1 - r : r = 1, 4} (mod 5), "
        "{T_r + 1 + r : r = 2, 3} (mod 5)>"
    ),
    ("725.F49", 7): (
        "<7, U_5, U_29 + 1, {T_r - 1 - r : r = 1} (mod 5), "
        "{T_r + 1 + r : r = 4} (mod 5), {T_r^2 + (1 - r)^2 : r = 2, 3} (mod 5)>"
    ),
    ("234", 7): (
        "<7, U_3, U_2 + 1, U_13 + 1, {T_r - 1 - r : r = 1} (mod 3), "
        "{T_r + 1 + r : r = 2} (mod 3)>"
    ),
}


def test_criterion_7_classification_goldens():
    t0 = time.time()
    assert sorted(candidate_characteristics(725, 5).union) == [2, 3, 5, 7]
    d = descriptor_at(EisensteinParams(quadratic_character(11), 121, 1, 1), 5)
    assert d.render() == DISPLAY_GOLDENS[("121", 5)]
    d = descriptor_at(EisensteinParams(quadratic_character(5), 725, 1, 29), 7)
    assert d.render() == DISPLAY_GOLDENS[("725.F7", 7)]
    assert d.residue_field() == "F_7"
    d = descriptor_at(EisensteinParams(character_with_value(5, 2, 4, 1), 725, 1, 29), 7)
    assert d.render() == DISPLAY_GOLDENS[("725.F49", 7)]
    assert d.residue_field() == "F_49"
    d = descriptor_at(EisensteinParams(quadratic_character(3), 234, 13, 2), 7)
    assert d.render() == DISPLAY_GOLDENS[("234", 7)]
    _report(7, t0, 5, "classification and descriptor displays byte-exact")
