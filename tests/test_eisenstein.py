import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import eisenstein_oracle
from eisenstein_oracle import hecke_Tl, hecke_Uq
from helpers import character_with_value, scalar_multiple
from eiscong.arith import DomainError, primes_up_to, sturm_bound
from eiscong.characters import (DirichletCharacter, enumerate_characters,
                                quadratic_character)
from eiscong.cyclotomic import CyclotomicField
from eiscong.eisenstein import (EisensteinParams, build_E, e_phi, lambda_pm,
                                lambda_twisted, refine_critical, refine_ordinary,
                                slash_scale, tl_eigenvalue, uq_eigenvalue)
from eiscong.scanner import eisenstein_basis


def rational_coeffs(E, B):
    return [E.coefficient(n).rational_value() for n in range(1, B + 1)]


def test_e_phi_121_quadratic():
    E = e_phi(quadratic_character(11), 12)
    assert rational_coeffs(E, 12) == [1, -3, 4, 7, 6, -12, -8, -15, 13, -18, 0, 28]
    assert E.level == 121
    assert E.a0.is_zero()
    assert E.pretty() == (
        "q - 3*q^2 + 4*q^3 + 7*q^4 + 6*q^5 - 12*q^6 - 8*q^7 - 15*q^8 "
        "+ 13*q^9 - 18*q^10 + 28*q^12"
    )


def test_e_phi_121_order_ten():
    phi = character_with_value(11, 2, 10, 1)
    E = e_phi(phi, 6)
    K = CyclotomicField(10)
    z10, z5 = K.zeta(1), K.zeta(2)
    assert E.coefficient(1) == K.one()
    assert E.coefficient(2) == z10 * (1 + 2 * z5 ** 4)
    assert E.coefficient(3) == -(z10 ** 3) * (1 + 3 * z5 ** 2)
    assert E.coefficient(4) == z5 * (1 + 2 * z5 ** 4 + 4 * z5 ** 3)
    assert E.coefficient(5) == z5 ** 2 * (1 + 5 * z5)
    assert E.coefficient(6) == -(z5 ** 2) * (1 + 2 * z5 ** 4 + 3 * z5 ** 2 + 6 * z5)


def test_e_phi_725_quadratic():
    E = e_phi(quadratic_character(5), 15)
    assert rational_coeffs(E, 15) == [1, -3, -4, 7, 0, 12, -8, -15, 13, 0, 12, -28, -14, 24, 0]


def test_e_phi_preconditions():
    with pytest.raises(DomainError):
        e_phi(DirichletCharacter.trivial(3), 5)
    with pytest.raises(DomainError):
        e_phi(quadratic_character(3).extend(12), 5)
    for B in (0, -3):  # no coefficient to compute
        with pytest.raises(DomainError):
            e_phi(quadratic_character(3), B)
        with pytest.raises(DomainError):
            build_E(EisensteinParams(quadratic_character(11), 121, 1, 1), B)


def test_refinements_234():
    phi = quadratic_character(3)
    displayed = {
        (1, 26): [1, -1, 0, 1, -6, 0, 8, -1, 0, 6, -12, 0, 1, -8, 0],     # ord2, ord13
        (2, 13): [1, -2, 0, 4, -6, 0, 8, -8, 0, 12, -12, 0, 1, -16, 0],   # crit2, ord13
        (26, 1): [1, -2, 0, 4, -6, 0, 8, -8, 0, 12, -12, 0, 13, -16, 0],  # crit2, crit13
        (13, 2): [1, -1, 0, 1, -6, 0, 8, -1, 0, 6, -12, 0, 13, -8, 0],    # ord2, crit13
    }
    for (M, L), want in displayed.items():
        E = build_E(EisensteinParams(phi, 234, M, L), 15)
        assert rational_coeffs(E, 15) == want, (M, L)
        assert E.level == 234 and E.a0.is_zero()


def test_refinement_coefficient_rules():
    phi = quadratic_character(3)
    E = e_phi(phi, 26)
    crit13 = refine_critical(E, 13, phi)
    assert crit13.coefficient(13).rational_value() == 13  # 14 - phi(13)*1
    ord13 = refine_ordinary(E, 13, phi)
    assert ord13.coefficient(13).rational_value() == 1  # 14 - 13*1
    ord2 = refine_ordinary(crit13, 2, phi)
    assert ord2.coefficient(2).rational_value() == -1  # -3 - 2*(-1)*1
    # refinement at l | f is the identity on coefficients, although l | level
    for refine in (refine_critical, refine_ordinary):
        same = refine(E, 3, phi)
        assert same.coeffs == E.coeffs and same.level == E.level * 3
    # refinements at distinct primes commute
    a = refine_ordinary(refine_critical(E, 13, phi), 2, phi)
    b = refine_critical(refine_ordinary(E, 2, phi), 13, phi)
    assert a.coeffs == b.coeffs


def test_refinement_guards():
    phi = quadratic_character(3)
    E = refine_ordinary(e_phi(phi, 26), 13, phi)
    for refine in (refine_critical, refine_ordinary):
        with pytest.raises(DomainError, match="^refinement requires a prime$"):
            refine(E, 4, phi)
    with pytest.raises(DomainError, match="^critical refinement at l=13 already dividing the level$"):
        refine_critical(E, 13, phi)
    with pytest.raises(DomainError, match="^ordinary refinement at q=13 already dividing the level$"):
        refine_ordinary(E, 13, phi)


def test_slash_scale():
    phi = quadratic_character(11)
    E = e_phi(phi, 10)
    assert slash_scale(E, 1) is E
    S = slash_scale(E, 2)
    assert S.level == 242 and S.precision == 20
    assert S.coefficient(2) == E.coefficient(1) * 2
    assert S.coefficient(3).is_zero()
    S6 = slash_scale(slash_scale(E, 2), 3)
    S6b = slash_scale(E, 6)
    assert S6.coeffs == S6b.coeffs and S6.level == S6b.level


def test_hecke_eigenform_property():
    """T_r E = (phi(r) + r phi^{-1}(r)) E for r <= 13 prime to N, for the
    built series of all four paper parameter sets."""
    cases = [
        (quadratic_character(11), 121, 1, 1),
        (character_with_value(11, 2, 10, 1), 121, 1, 1),
        (quadratic_character(5), 725, 1, 29),
        (quadratic_character(3), 234, 13, 2),
        (character_with_value(5, 2, 4, 1), 725, 29, 1),
    ]
    for phi, N, M, L in cases:
        P = EisensteinParams(phi, N, M, L)
        B = 13 * 6
        E = build_E(P, B)
        for r in primes_up_to(13):
            if N % r == 0:
                continue
            TE = hecke_Tl(E, r)
            lam = scalar_multiple(TE, E, B // r)
            assert lam is not None and lam == tl_eigenvalue(phi, r).embed(lam.field.m), (N, r)


def test_u_eigenvalues():
    phi2 = quadratic_character(5)
    for (M, L), q, want in [((29, 1), 29, 29), ((1, 29), 29, 1)]:
        P = EisensteinParams(phi2, 725, M, L)
        E = build_E(P, 60)
        UE = hecke_Uq(E, q)
        lam = scalar_multiple(UE, E, 2)
        assert lam == uq_eigenvalue(P, q).embed(lam.field.m)
    phi = quadratic_character(11)
    E = build_E(EisensteinParams(phi, 121, 1, 1), 22)
    U = hecke_Uq(E, 11)
    assert all(U.coefficient(n).is_zero() for n in range(1, U.precision + 1))
    phi3 = quadratic_character(3)
    P = EisensteinParams(phi3, 234, 13, 2)
    E = build_E(P, 60)
    assert scalar_multiple(hecke_Uq(E, 2), E, 20) == phi3.value(2)
    lam13 = scalar_multiple(hecke_Uq(E, 13), E, 4)
    assert lam13 == uq_eigenvalue(P, 13).embed(lam13.field.m)


def test_hecke_routing():
    phi = quadratic_character(11)
    E = build_E(EisensteinParams(phi, 121, 1, 1), 22)
    with pytest.raises(DomainError):
        hecke_Tl(E, 11)
    with pytest.raises(DomainError):
        hecke_Uq(E, 3)


def test_params_validation():
    phi = quadratic_character(5)
    with pytest.raises(DomainError):
        EisensteinParams(phi, 725, 29, 29)  # gcd(fM, L) != 1... also f^2ML | N fails
    with pytest.raises(DomainError):
        EisensteinParams(phi, 724, 1, 1)
    with pytest.raises(DomainError):
        EisensteinParams(DirichletCharacter.trivial(5), 725, 1, 1)
    # side condition: N = f^2 * p^2 * ... with nu_p(M) != n_p
    phi3 = quadratic_character(3)
    with pytest.raises(DomainError):
        EisensteinParams(phi3, 3 ** 4 * 2, 2, 1)  # n_3 = 2 > 1 but nu_3(M) = 0
    P = EisensteinParams(phi3, 3 ** 4 * 2, 9 * 2, 1)
    assert P.T1 == 2 and P.T2 == 1


def test_derived_sets():
    phi3 = quadratic_character(3)
    P = EisensteinParams(phi3, 234, 1, 26)
    assert P.T1 == 1 and P.T2 == 26
    assert set(P.S_phi) == {2, 13} and P.T2_phi == 26
    P = EisensteinParams(phi3, 234, 13, 2)
    assert P.T1 == 13 and P.T2 == 2 and set(P.S_phi) == {2}
    phi4 = character_with_value(5, 2, 4, 1)
    P = EisensteinParams(phi4, 725, 1, 29)
    assert P.S_phi == (29,)  # phi(29) = -1
    assert P.xi == quadratic_character(5)


def test_lambda_twisted_and_pm():
    phi = quadratic_character(11)  # odd
    P = EisensteinParams(phi, 121, 1, 1)
    chi = next(c for c in enumerate_characters(7) if c.order == 3)
    assert chi.is_even()
    lam = lambda_twisted(P, chi)
    assert not lam.is_zero()
    pm = lambda_pm(P, chi)
    m = max(lam.field.m, pm.field.m)
    assert pm.embed(m) == lam.embed(m) * Fraction(1, 2)
    # the chi*chi_m twist collapses: phi^{-1}chi^{-1}chi_m^{-1} is even
    chim = quadratic_character(7)
    assert lambda_twisted(P, chi * chim).is_zero()
    # conductor not coprime -> error
    with pytest.raises(DomainError):
        lambda_twisted(P, next(c for c in enumerate_characters(11) if c.order == 5))
    # parity violation -> error
    odd7 = next(c for c in enumerate_characters(7) if c.order == 6)
    with pytest.raises(DomainError):
        lambda_pm(P, odd7)


def test_lambda_pm_zero_factor():
    # N = 117 = 9*13, T2 = 13, chi cubic mod 7 has chi*phi^{-1}(13) = 1
    phi3 = quadratic_character(3)
    P = EisensteinParams(phi3, 117, 1, 13)
    chi = next(c for c in enumerate_characters(7) if c.order == 3)
    assert (chi.value(13) * phi3.inverse().value(13)).embed(6) == CyclotomicField(6).one()
    assert lambda_pm(P, chi).is_zero()
    assert lambda_twisted(P, chi).is_zero()


def test_lambda_even_product_vanishes():
    # chi phi^{-1} even makes the B1 factor vanish
    phi = quadratic_character(11)  # odd
    P = EisensteinParams(phi, 121, 1, 1)
    odd3 = next(c for c in enumerate_characters(7) if c.order == 6)  # odd
    assert (phi.inverse() * odd3).is_even()
    assert lambda_twisted(P, odd3).is_zero()


def test_machine_lines_and_precision():
    phi = quadratic_character(11)
    E = e_phi(phi, 5)
    assert E.machine_lines() == ["1: 1", "2: -3", "3: 4", "4: 7", "5: 6"]
    with pytest.raises(DomainError):
        E.coefficient(6)


def test_hecke_eigenform_property_randomized():
    import random

    from helpers import random_pgood_params

    rng = random.Random(1313)
    for P in random_pgood_params(rng, 6, nprime_max=15):
        B = 7 * 4
        E = build_E(P, B)
        for r in (2, 3, 5, 7):
            if P.N % r == 0:
                continue
            lam = scalar_multiple(hecke_Tl(E, r), E, B // r)
            assert lam is not None and lam == tl_eigenvalue(P.phi, r).embed(lam.field.m)


# -- e_phi against the former sieve, and the benchmark's pinned expansions ------

_ORACLE_CHARACTERS = [phi for f in range(3, 41) for phi in enumerate_characters(f)
                      if phi.is_primitive() and 2 <= phi.order <= 12]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.sampled_from(_ORACLE_CHARACTERS), st.integers(1, 100))
def test_e_phi_matches_oracle(phi, B):
    """Every coefficient read off the table of zeta powers is the element the
    former per-coefficient `K.element` built: same num, den and hash."""
    E, O = e_phi(phi, B), eisenstein_oracle.e_phi(phi, B)
    assert (E.level, E.precision, len(E.coeffs)) == (O.level, O.precision, len(O.coeffs))
    for a, b in zip(E.coeffs + (E.a0,), O.coeffs + (O.a0,)):
        assert a.field is b.field
        assert (a.num, a.den, hash(a)) == (b.num, b.den, hash(b))


def test_build_E_matches_benchmark_goldens():
    """The 19 eigenbasis expansions at the Sturm bound hash to the digests the
    benchmark checks (bench/goldens.json, read only)."""
    golden = json.loads((Path(__file__).parents[1] / "bench" / "goldens.json").read_text())
    got = {}
    for N, p in ((121, 11), (234, 3), (725, 5)):
        for P in eisenstein_basis(N, p):
            lines = "\n".join(build_E(P, sturm_bound(N)).machine_lines())
            got[P.label()] = hashlib.sha256(lines.encode()).hexdigest()
    assert len(got) == 19
    assert got == golden["build_E"]
