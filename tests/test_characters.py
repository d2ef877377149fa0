from collections import Counter
from fractions import Fraction
from itertools import product
from math import gcd, lcm

import characters_oracle
import pytest
from helpers import character_with_value, galois

from eiscong import characters
from eiscong.arith import DomainError, divisors, euler_phi
from lambda_oracle import bernoulli_B1, chi_in_XS

from eiscong.characters import (DirichletCharacter, bernoulli_B2, character_from_label,
                                enumerate_characters, gauss_sum, gauss_sum_inverse,
                                quadratic_character)
from eiscong.cyclotomic import DEGREE_CAP, CyclotomicField


def test_enumeration():
    assert [c.order for c in enumerate_characters(3)] == [1, 2]
    c11 = Counter(c.order for c in enumerate_characters(11))
    assert c11 == {1: 1, 2: 1, 5: 4, 10: 4}
    c5 = [c for c in enumerate_characters(5) if not c.is_trivial()]
    assert sorted(c.order for c in c5) == [2, 4, 4]
    for f in (1, 2, 8, 12, 16, 15, 24, 35):
        chars = enumerate_characters(f)
        assert len(chars) == euler_phi(f)
        assert len({c.label() for c in chars}) == len(chars)


def test_values_and_multiplicativity():
    q11 = quadratic_character(11)
    assert q11.value(2) == CyclotomicField(2).from_rational(-1)
    assert q11.value(11).is_zero()
    phi10 = character_with_value(11, 2, 10, 1)
    assert phi10.value(2) == CyclotomicField(10).zeta(1)
    # complete multiplicativity on units
    for chi in enumerate_characters(12) + [phi10]:
        f, k = chi.modulus, chi.order
        for a in range(1, f):
            for b in range(1, f):
                if gcd(a * b, f) == 1:
                    ea, eb, eab = (chi.value_exponent(a), chi.value_exponent(b),
                                   chi.value_exponent(a * b))
                    assert (ea + eb) % k == eab


def test_conductor_primitive_part():
    q11 = quadratic_character(11)
    xi = (q11 * q11).primitive_part()
    assert xi.conductor() == 1 and xi.is_trivial()
    phi10 = character_with_value(11, 2, 10, 1)
    xi = (phi10 * phi10).primitive_part()
    assert xi.conductor() == 11 and xi.order == 5
    assert DirichletCharacter.trivial(12).conductor() == 1
    q3 = quadratic_character(3)
    assert q3.extend(12).conductor() == 3
    assert q3.extend(12).primitive_part() == q3


def test_gauss_sums():
    assert gauss_sum(quadratic_character(5)) ** 2 == CyclotomicField(5).from_rational(5)
    assert gauss_sum(quadratic_character(11)) ** 2 == CyclotomicField(11).from_rational(-11)
    assert gauss_sum(DirichletCharacter.trivial()) == CyclotomicField(1).one()
    with pytest.raises(DomainError):
        gauss_sum(quadratic_character(3).extend(12))


def test_gauss_sum_identity_small_fields():
    """tau(chi) tau(chi^-1) = chi(-1) f via full field arithmetic, f <= 21."""
    for f in range(3, 22):
        for chi in enumerate_characters(f):
            if not chi.is_primitive() or chi.is_trivial():
                continue
            if euler_phi(lcm(f, chi.order)) > 200:
                continue
            t1, t2 = gauss_sum(chi), gauss_sum(chi.inverse())
            L = lcm(t1.field.m, t2.field.m)
            assert t1.embed(L) * t2.embed(L) == chi.value(-1).embed(L) * f
            # |tau|^2 = f with conjugation zeta -> zeta^{-1}
            assert t1 * galois(t1, t1.field.m - 1) == CyclotomicField(t1.field.m).from_rational(f)


def test_gauss_sum_identity_all_conductors_to_60():
    """tau(chi)tau(chi^-1) = chi(-1) f and tau(chi)conj(tau(chi)) = f for every
    primitive chi of conductor <= 60, via the tensor-algebra reduction."""
    from helpers import check_gauss_identity

    for f in range(3, 61):
        for chi in enumerate_characters(f):
            if chi.is_primitive() and not chi.is_trivial():
                check_gauss_identity(chi)


def test_gauss_sum_inverse_closed_form():
    """gauss_sum_inverse rests on tau(chi) tau(chi^-1) = chi(-1) f, checked for
    every primitive chi of conductor <= 60 by the tensor-algebra sweep above;
    here the closed form is an inverse in the library's own arithmetic wherever
    Q(zeta_lcm(f, k)) is within the degree cap, and equals the generic inverse
    on the small fields."""
    checked = 0
    for f in range(1, 61):
        for chi in enumerate_characters(f):
            if not chi.is_primitive() or euler_phi(lcm(f, chi.order)) > DEGREE_CAP:
                continue
            tau, inv = gauss_sum(chi), gauss_sum_inverse(chi)
            assert inv.field == tau.field
            assert tau * inv == 1, chi.label()
            if tau.field.degree <= 12:
                assert inv == tau.inverse(), chi.label()
            checked += 1
    assert checked > 300


def test_bernoulli_B1():
    assert bernoulli_B1(quadratic_character(3)).rational_value() == Fraction(-1, 3)
    assert bernoulli_B1(quadratic_character(11)).rational_value() == -1
    with pytest.raises(DomainError):
        bernoulli_B1(DirichletCharacter.trivial())
    # vanishing on even characters, conductor <= 60
    for f in range(3, 61):
        for chi in enumerate_characters(f):
            if chi.is_trivial() or not chi.is_even():
                continue
            assert bernoulli_B1(chi).is_zero()


def test_bernoulli_B2():
    assert bernoulli_B2(DirichletCharacter.trivial()).rational_value() == Fraction(1, 6)
    assert bernoulli_B2(DirichletCharacter.trivial(12)).rational_value() == Fraction(1, 6)
    assert bernoulli_B2(quadratic_character(5)).rational_value() == Fraction(4, 5)
    phi10 = character_with_value(11, 2, 10, 1)
    xi_inv = ((phi10 * phi10).primitive_part()).inverse()
    K5 = CyclotomicField(5)
    want = K5.element(
        [Fraction(61, 33), Fraction(-59, 33), Fraction(-23, 33), Fraction(-47, 33), Fraction(13, 33)]
    )
    assert bernoulli_B2(xi_inv) == want
    # parity: B2 vanishes on odd characters, conductor <= 60
    for f in range(3, 61):
        for chi in enumerate_characters(f):
            if chi.is_primitive() and not chi.is_even():
                assert bernoulli_B2(chi).is_zero()


def test_chi_in_XS():
    assert not chi_in_XS(quadratic_character(7), 121)
    cubic7 = next(c for c in enumerate_characters(7) if c.order == 3)
    assert chi_in_XS(cubic7, 121)
    ord11_23 = next(c for c in enumerate_characters(23) if c.order == 11)
    assert not chi_in_XS(ord11_23, 23)  # gcd(conductor, N) != 1
    assert chi_in_XS(ord11_23, 121)
    cubic13 = next(c for c in enumerate_characters(13) if c.order == 3)
    assert not chi_in_XS(cubic13, 121)  # 13 = 1 mod 4


def test_labels_roundtrip():
    for f in (3, 5, 11, 12):
        for chi in enumerate_characters(f):
            assert character_from_label(chi.label()) == chi
    assert character_from_label("11.2.1") == quadratic_character(11)
    with pytest.raises(DomainError):
        character_from_label("11.3.1")


def _same(new, old):
    """The library's character and the oracle's are the same character."""
    assert (new.modulus, new.order, new.exponents, new.label()) == (
        old.modulus, old.order, old.exponents, old.label())


def test_characters_match_the_oracle():
    """Enumeration order, labels, tables and group operations agree with the
    table-stored module the label form replaced."""
    for f in range(1, 121):
        new, old = enumerate_characters(f), characters_oracle.enumerate_characters(f)
        assert len(new) == len(old) == euler_phi(f)
        for a, b in zip(new, old):
            _same(a, b)
            assert a.conductor() == b.conductor() and a.is_even() == b.is_even()
            _same(a.primitive_part(), b.primitive_part())
            for j in (-1, 2, 3):
                _same(a.power(j), b.power(j))
            if f > 40:
                continue
            _same(a.extend(2 * f), b.extend(2 * f))
            _same(a.extend(3 * f), b.extend(3 * f))
            for d in divisors(f):
                for x, y in zip(enumerate_characters(d), characters_oracle.enumerate_characters(d)):
                    _same(a * x, b * y)
                    _same(x * a, y * b)


_LABELS = ["11.3.1", "2.1.5", "1.1.3", "4.1.0-0", "11.2", "11.10.-1", "0.1.0", "x.2.1",
           "11.10.2", "11.1.5", "11.1.0-0", "011.2.1", "11.2. 1", "11.2.1-", "11.0.1",
           "11.-2.1", "1.2.0", "-3.1.0", "10001.1.0", "12.2.1-1-1", "16.4.1-3", "5.4.5"]
_LABELS += [f"{f}.{k}." + "-".join(map(str, es)) for f in range(-1, 26) for k in (-1, 0, 1, 2, 3, 4, 6)
            for n in (1, 2, 3) for es in product((-1, 0, 1, 2, 5), repeat=n)]


def _parse(parse, label):
    try:
        return parse(label)
    except DomainError as exc:
        return str(exc)


# the oracle reads these with int(); the library needs f, k and each
# exponent to read back exactly as written
_MISSPELLED = {"011.2.1", "11.2. 1"}


def test_labels_parse_as_the_oracle_parses():
    """Valid, non-canonical and malformed labels give the oracle's character
    or its DomainError text; a misspelled number is a bad label."""
    for label in _LABELS:
        new, old = _parse(character_from_label, label), _parse(characters_oracle.character_from_label, label)
        if label in _MISSPELLED:
            assert new == f"bad character label {label!r}" != old, label
        elif isinstance(old, str):
            assert new == old, label
        else:
            _same(new, old)


def test_label_parse_builds_one_character(monkeypatch):
    """character_from_label builds the character its label names, not the
    euler_phi(f) characters mod f."""
    built = []
    init = DirichletCharacter.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    def no_enumeration(f):
        raise AssertionError("character_from_label enumerated the characters")

    monkeypatch.setattr(DirichletCharacter, "__init__", counting_init)
    monkeypatch.setattr(characters, "enumerate_characters", no_enumeration)
    for label in ["4001.2.1", "4001.4000.1", "1009.2.1", "720.4.2-1-2-1", "11.3.1", "2.1.5", "x.2.1"]:
        built.clear()
        _parse(character_from_label, label)
        assert len(built) <= 2, label
