"""`arith.record` against frozen dataclasses: same equality, hashes and
reprs, the same constructor, and instances that stay frozen."""

import copy
import pickle
import random
from dataclasses import fields

import pytest
from hypothesis import given, strategies as st

import eisenstein_oracle
import record_oracle
from helpers import random_pgood_params, random_valid_params

from eiscong.arith import FrozenRecordError, record
from eiscong.characters import character_from_label
from eiscong.cyclotomic import CycElement, CyclotomicField, _CycField
from eiscong.eisenstein import EisensteinParams
from eiscong.ffield import FiniteField
from eiscong.scanner import CongruenceReport


@record
class Span:
    lo: int
    hi: int = 10
    width: int
    _computed = ("width",)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty span {self.lo}..{self.hi}")
        object.__setattr__(self, "width", self.hi - self.lo)


small = st.integers(-3, 3)
report_values = st.tuples(
    st.sampled_from(["E_11.2.1", "E_3.2.1"]), st.sampled_from(["121.2.a.a", "11.2.a.a"]),
    st.sampled_from([2, 3, 5]), st.integers(1, 2),
    st.tuples(st.tuples(small), st.tuples(small, small)), st.integers(0, 2),
    st.booleans(), st.none() | st.integers(1, 3))


def twins(values):
    return CongruenceReport(*values), record_oracle.CongruenceReport(*values)


@given(report_values, report_values)
def test_congruence_report_matches_dataclass(a, b):
    """==, hash and repr of the record agree with its dataclass twin; the
    small value ranges make equal pairs common."""
    (ra, da), (rb, db) = twins(a), twins(b)
    assert (ra == rb) == (da == db)
    assert (ra != rb) == (da != db)
    assert hash(ra) == hash(da) and hash(rb) == hash(db)
    assert repr(ra) == repr(da)
    assert ra != da and ra == CongruenceReport(**dict(zip(CongruenceReport._fields, a)))
    assert ra.__eq__(a) is NotImplemented


def test_fields_match_dataclass():
    assert CongruenceReport._fields == tuple(f.name for f in fields(record_oracle.CongruenceReport))
    assert Span._fields == ("lo", "hi")


@given(small, small)
def test_defaults_and_post_init(lo, hi):
    """A default fills a missing argument, __post_init__ runs after the fields
    are set, and its computed field stays out of __init__, == and repr."""
    if lo > hi:
        with pytest.raises(ValueError):
            Span(lo, hi)
        with pytest.raises(ValueError):
            record_oracle.Span(lo, hi)
        return
    s, d = Span(lo, hi), record_oracle.Span(lo, hi)
    assert (s.lo, s.hi, s.width) == (d.lo, d.hi, d.width) == (lo, hi, hi - lo)
    assert repr(s) == repr(d) == f"Span(lo={lo}, hi={hi})"
    assert hash(s) == hash(d) == hash((lo, hi))
    assert Span(lo) == Span(lo, 10) == Span(hi=10, lo=lo)
    assert Span(lo).width == record_oracle.Span(lo).width == 10 - lo


def test_computed_fields_of_library_records():
    F = FiniteField.create(5, 2)
    assert FiniteField._fields == ("q", "r", "modulus") and F.frobenius is not None
    assert repr(F) == f"FiniteField(q=5, r=2, modulus={F.modulus!r})"
    assert F == FiniteField(5, 2, F.modulus) and hash(F) == hash((5, 2, F.modulus))
    with pytest.raises(TypeError):
        FiniteField(5, 2, F.modulus, F.frobenius)
    K = CyclotomicField(12)
    assert _CycField._fields == ("m", "degree", "modulus") and len(K.powers) == 12
    assert K == _CycField(12, 4, K.modulus) and hash(K) == hash((12, 4, K.modulus))
    assert EisensteinParams._fields == ("phi", "N", "M", "L")
    sets = random_valid_params(random.Random(3), 60) + random_pgood_params(
        random.Random(4), 60, nprime_max=60, primes=(3, 5, 7, 11, 13))
    for P in sets:
        want = eisenstein_oracle.derived(P)
        assert {name: vars(P)[name] for name in want} == want, P.label()
        key = (P.phi, P.N, P.M, P.L)
        assert P == EisensteinParams(*key) and hash(P) == hash(key)
        assert repr(P) == "EisensteinParams(phi={!r}, N={!r}, M={!r}, L={!r})".format(*key)


def test_own_dunders_are_kept():
    K = CyclotomicField(12)
    a, b = K.element([1, 2]), CyclotomicField(24).element([1, 0, 2])
    assert CycElement.__dict__["__eq__"].__module__ == "eiscong.cyclotomic"
    assert a == b  # across fields, which the record's __eq__ would call unequal
    assert CycElement.__dict__["__hash__"].__module__ == "eiscong.cyclotomic"
    assert K.element([3]) == 3 and hash(a) == hash(b) and hash(K.element([3])) == hash(3)
    assert repr(K) == "Q(zeta_12)"
    chi = character_from_label("11.2.1")
    assert repr(chi) == "DirichletCharacter(11.2.1)"
    assert hash(chi) == hash((chi.modulus, chi.order, chi.gens))


@pytest.mark.parametrize("args, kwargs", [
    ((), {}),  # missing every argument
    (("E", "f", 2, 1, ((1,), (2,)), 3, True), {}),  # missing one
    (("E", "f", 2, 1, ((1,), (2,)), 3, True, None, 0), {}),  # one too many
    (("E", "f", 2, 1, ((1,), (2,)), 3, True), {"first_mismatch": None, "extra": 1}),
    (("E", "f", 2, 1, ((1,), (2,)), 3, True, None), {"prime": 2}),  # prime twice
])
def test_bad_arguments_raise_type_error(args, kwargs):
    with pytest.raises(TypeError):
        CongruenceReport(*args, **kwargs)
    with pytest.raises(TypeError):
        record_oracle.CongruenceReport(*args, **kwargs)


def test_instances_stay_frozen():
    K = CyclotomicField(12)
    report = CongruenceReport("E", "f", 2, 1, ((1,), (2,)), 3, True, None)
    for x, name in ((report, "prime"), (report, "new"), (Span(1), "width"), (K, "powers"),
                    (K.zeta(1), "den"), (FiniteField.create(3, 2), "frobenius")):
        with pytest.raises(FrozenRecordError):
            setattr(x, name, 0)
        with pytest.raises(FrozenRecordError):
            delattr(x, name)
    assert issubclass(FrozenRecordError, AttributeError)
    assert report.prime == 2 and K.zeta(1).den == 1


def test_copy_and_pickle_round_trip():
    """Copies and pickles of records equal the original, slotted ones too, and
    keep computed fields."""
    K = CyclotomicField(12)
    F = FiniteField.create(5, 2)
    for x in (K.zeta(5), K, F, CongruenceReport("E", "f", 2, 1, ((1,), (2,)), 3, True, None)):
        for y in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
            assert y == x and type(y) is type(x)
    assert pickle.loads(pickle.dumps(K)).powers == K.powers
    assert pickle.loads(pickle.dumps(F)).frobenius == F.frobenius
