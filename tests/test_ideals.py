import ideals_oracle
import pytest
from helpers import character_with_value, count_calls, descriptor_at
from hypothesis import given, settings
from hypothesis import strategies as st
from lattice_oracle import numerator_ideal

from eiscong.arith import DomainError, is_p_good, primes_up_to
from eiscong.characters import enumerate_characters, quadratic_character
from eiscong.cusps import beta_tilde
from eiscong.cyclotomic import CycElement
from eiscong.eisenstein import EisensteinParams
from eiscong.ffield import FiniteField
from eiscong.ideals import (_isqrt, _render_bivariate, candidate_characteristics,
                            cuspidal_order, descriptor, eisenstein_character, s1_set,
                            s2_set)
from eiscong.lattices import numerator_index
from eiscong.scanner import eisenstein_basis


def test_cuspidal_order_121():
    phi = quadratic_character(11)
    P = EisensteinParams(phi, 121, 1, 1)
    order = cuspidal_order(P)
    assert order == 605 ** 10 * 11 ** 5
    assert order % 5 == 0


def test_cuspidal_order_galois_invariance():
    # conjugate characters give ideals of equal index
    for f, N, ML in ((5, 725, (1, 29)), (11, 121, (1, 1)), (13, 169, (1, 1))):
        by_order = {}
        for phi in enumerate_characters(f):
            if phi.is_trivial():
                continue
            P = EisensteinParams(phi, N, *ML)
            by_order.setdefault(phi.order, set()).add(cuspidal_order(P))
        for k, vals in by_order.items():
            assert len(vals) == 1, (f, k, vals)


def test_12_saturation():
    phi = quadratic_character(3)
    P = EisensteinParams(phi, 234, 13, 2)
    order = cuspidal_order(P)
    order12 = numerator_index(beta_tilde(P) * 12)
    deg = P.field().degree
    assert order12 % order == 0
    assert (12 ** deg * order) % order12 == 0


def test_s_sets():
    assert sorted(s1_set(121)) == [2, 3, 5]
    assert sorted(s1_set(725)) == [2, 3, 5, 7]
    assert sorted(s1_set(4)) == [3]
    assert sorted(s2_set(121, 11)) == [2, 3, 5, 11]
    assert 5 in s2_set(121, 11)  # via the order-10 character's B2 norm
    assert sorted(s2_set(725, 5)) == [2, 3, 5]
    assert sorted(s2_set(9, 3)) == [3]
    with pytest.raises(DomainError):
        s2_set(33, 3)


def test_s2_set_takes_one_norm_per_galois_orbit(monkeypatch):
    """The nine nontrivial characters mod 11 fall into three Galois orbits,
    of orders 2, 5 and 10, and candidate_characteristics takes one B2 norm
    per orbit."""
    calls = count_calls(monkeypatch, CycElement, "norm_to_Q")
    assert sorted(candidate_characteristics(121, 11).union) == [2, 3, 5, 11]
    assert calls == {"norm_to_Q": 3}


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.sampled_from(primes_up_to(23)[1:]), st.randoms(use_true_random=False))
def test_s2_set_matches_every_character_oracle(p, rng):
    """s2_set equals the former loop over every nontrivial character, at
    random p-good levels with p <= 23, and characters with equal kernels
    have equal B2 norms."""
    eligible = [q for q in primes_up_to(200) if q % p in (1, p - 1)]
    N = p * p
    for q in rng.sample(eligible, rng.randrange(0, 3)):
        N *= q
    assert is_p_good(N, p)
    assert s2_set(N, p) == ideals_oracle.s2_set(N, p)
    by_kernel = {}
    for phi in enumerate_characters(p):
        kernel = frozenset(a for a in range(1, p) if phi.value_exponent(a) == 0)
        by_kernel.setdefault(kernel, set()).add(ideals_oracle.b2_norm(phi, p))
    assert all(len(norms) == 1 for norms in by_kernel.values())


def test_candidate_characteristics():
    assert sorted(candidate_characteristics(121, 11).union) == [2, 3, 5, 11]
    assert sorted(candidate_characteristics(725, 5).union) == [2, 3, 5, 7]
    rep = candidate_characteristics(234, 3)
    assert 7 in rep.union and rep.provenance()[7] == ["S1"]
    with pytest.raises(DomainError):
        candidate_characteristics(10, 3)


def test_eisenstein_character_reduction():
    phi10 = character_with_value(11, 2, 10, 1)
    eps = eisenstein_character(phi10, 5)
    assert eps.order == 2 and eps == quadratic_character(11)
    phi4 = character_with_value(5, 2, 4, 1)
    assert eisenstein_character(phi4, 7) == phi4
    phi5 = next(c for c in enumerate_characters(11) if c.order == 5)
    assert eisenstein_character(phi5, 5).is_trivial()


DISPLAY_121 = (
    "<5, U_11, {T_r - 1 - r : r = 1, 3, 4, 5, 9} (mod 11), "
    "{T_r + 1 + r : r = 2, 6, 7, 8, 10} (mod 11)>"
)
DISPLAY_725_F7 = (
    "<7, U_5, U_29 - 1, {T_r - 1 - r : r = 1, 4} (mod 5), "
    "{T_r + 1 + r : r = 2, 3} (mod 5)>"
)
DISPLAY_725_F49 = (
    "<7, U_5, U_29 + 1, {T_r - 1 - r : r = 1} (mod 5), "
    "{T_r + 1 + r : r = 4} (mod 5), {T_r^2 + (1 - r)^2 : r = 2, 3} (mod 5)>"
)
# the paper prints U_13 - 1; U_13 - 13 eps^{-1}(13) = U_13 - 13 = U_13 + 1 (mod 7),
# matching a_13(234.2.a.b) = -1
DISPLAY_234 = (
    "<7, U_3, U_2 + 1, U_13 + 1, {T_r - 1 - r : r = 1} (mod 3), "
    "{T_r + 1 + r : r = 2} (mod 3)>"
)


def test_descriptor_displays():
    d = descriptor_at(EisensteinParams(quadratic_character(11), 121, 1, 1), 5)
    assert d.render() == DISPLAY_121
    assert d.residue_field() == "F_5"
    d = descriptor_at(EisensteinParams(quadratic_character(5), 725, 1, 29), 7)
    assert d.render() == DISPLAY_725_F7
    assert d.residue_field() == "F_7"
    phi4 = character_with_value(5, 2, 4, 1)
    d = descriptor_at(EisensteinParams(phi4, 725, 1, 29), 7)
    assert d.render() == DISPLAY_725_F49
    assert d.residue_field() == "F_49"
    d = descriptor_at(EisensteinParams(quadratic_character(3), 234, 13, 2), 7)
    assert d.render() == DISPLAY_234
    assert d.residue_field() == "F_7"


def test_perfect_square_display():
    """X^2 + (a + b r)^2 shows r, not 1*r, for b = +-1, as every other term does."""
    for b, shown in ((1, "2 + r"), (-1, "2 - r"), (2, "2 + 2*r"), (-2, "2 - 2*r")):
        assert _render_bivariate(((4, 4 * b, b * b), (0, 0, 0)), 2) == f" + ({shown})^2"


def test_descriptor_conjugates_and_errors():
    # order-10 character at l = 5 reduces to the quadratic: same display
    phi10 = character_with_value(11, 2, 10, 1)
    d = descriptor_at(EisensteinParams(phi10, 121, 1, 1), 5)
    assert d.render() == DISPLAY_121
    with pytest.raises(DomainError):
        descriptor_at(EisensteinParams(quadratic_character(11), 121, 1, 1), 3)  # l | 6p
    with pytest.raises(DomainError):
        descriptor_at(EisensteinParams(quadratic_character(11), 121, 1, 1), 11)
    phi5 = next(c for c in enumerate_characters(11) if c.order == 5)
    with pytest.raises(DomainError):
        descriptor_at(EisensteinParams(phi5, 121, 1, 1), 5)  # trivial reduction


def test_descriptor_needs_a_root_of_phi_k():
    """zeta_root must be a root in F of Phi_k, k the order of phi: for an
    order-4 phi in F_49, neither 1 nor -1, a root of Phi_2, will do."""
    params = EisensteinParams(character_with_value(5, 2, 4, 1), 725, 1, 29)
    F = FiniteField.create(7, 2)
    for not_a_root in (F.one(), F.from_int(-1)):
        with pytest.raises(DomainError):
            descriptor(params, F, not_a_root)


def test_descriptor_json_stability():
    import json

    d = descriptor_at(EisensteinParams(quadratic_character(5), 725, 29, 1), 7)
    j1 = json.dumps(d.to_json(), sort_keys=True)
    j2 = json.dumps(
        descriptor_at(EisensteinParams(quadratic_character(5), 725, 29, 1), 7).to_json(),
        sort_keys=True,
    )
    assert j1 == j2
    payload = json.loads(j1)
    assert payload["residue_field"] == "F_7"
    assert payload["M"] == 29
    # U_29 - 29*eps^{-1}(29) = U_29 - 29 = U_29 - 1 (mod 7)
    assert "U_29 - 1" in payload["u_generators"]


def test_descriptor_higher_degree_groups():
    """Order-5 character at l = 7: residue field F_7^4, quartic T_r relations
    render in expanded form without error."""
    phi5 = next(c for c in enumerate_characters(11) if c.order == 5)
    d = descriptor_at(EisensteinParams(phi5, 121, 1, 1), 7)
    assert d.residue_field() == "F_2401"
    assert any(g.degree == 4 for g in d.tr_groups)
    text = d.render()
    assert "T_r^4" in text and text.startswith("<7, U_11, ")


def test_isqrt_exact_at_any_size():
    # a float square root loses these: the first rounds, the second overflows
    assert _isqrt((10 ** 30 + 7) ** 2) == 10 ** 30 + 7
    assert _isqrt((10 ** 30 + 7) ** 2 + 1) is None
    assert _isqrt(4 ** 600) == 2 ** 600
    assert [_isqrt(n) for n in (-4, 0, 1, 2, 9)] == [None, 0, 1, None, 3]


@pytest.mark.parametrize("N, p", ((121, 11), (234, 3), (725, 5)))
def test_cuspidal_order_matches_oracle(N, p):
    for P in eisenstein_basis(N, p):
        assert cuspidal_order(P) == numerator_ideal(beta_tilde(P)).index(), P.label()
