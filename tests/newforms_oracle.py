"""The newform ingest that eiscong.newforms and eiscong.scanner replaced,
kept as a test oracle.

`NewformRecord` is the former record, whose `an` holds power-basis
coordinates as Fractions, with its former `coefficient` and `_kmul`.
`_parse_record` and `parse_newforms` are the former Fraction parse, and
`_common_denominator` is the former per-coefficient conversion of the
scanner back to integers over one denominator.  The code is verbatim; the
schema checks `_require` and `NewformDataError` are the library's, which
this change left as they were.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from eiscong import polys
from eiscong.arith import DomainError
from eiscong.newforms import _require


@dataclass(frozen=True)
class NewformRecord:
    """A weight-2 newform orbit: defining polynomial and exact coefficients."""

    label: str
    level: int
    weight: int
    field_poly: tuple[int, ...]
    an: tuple[tuple[Fraction, ...], ...]  # power-basis coordinates of a_1..a_B

    @property
    def degree(self) -> int:
        return len(self.field_poly) - 1

    @property
    def bound(self) -> int:
        return len(self.an)

    def coefficient(self, n: int) -> tuple[Fraction, ...]:
        if not 1 <= n <= self.bound:
            raise DomainError(f"a_{n} outside available range 1..{self.bound}")
        return self.an[n - 1]

    def _kmul(self, u, v):
        return tuple(polys.divmod_monic(polys.mul(u, v), self.field_poly)[1])


def _parse_record(item: dict, where: str) -> NewformRecord | None:
    _require(isinstance(item, dict), where, "record must be an object")
    for key in ("label", "level", "weight", "field_poly", "an"):
        _require(key in item, where, f"missing field {key!r}")
    label = item["label"]
    _require(isinstance(label, str), where, "label must be a string")
    level = item["level"]
    _require(isinstance(level, int) and level >= 1, where, "level must be a positive int")
    if item["weight"] != 2:
        return None  # only weight-2 trivial-nebentypus forms are accepted
    poly = item["field_poly"]
    _require(
        isinstance(poly, list) and poly and all(isinstance(c, int) for c in poly),
        where, "field_poly must be a nonempty list of ints",
    )
    _require(poly[-1] == 1, where, "field_poly must be monic")
    deg = len(poly) - 1
    _require(deg >= 1, where, "field_poly must have degree >= 1")
    an_raw = item["an"]
    _require(isinstance(an_raw, list) and an_raw, where, "an must be a nonempty list")

    basis = None
    if "basis_matrix" in item or "basis_denominators" in item:
        bm = item.get("basis_matrix")
        bd = item.get("basis_denominators")
        _require(isinstance(bm, list) and len(bm) == deg, where, "basis_matrix must be deg x deg")
        _require(isinstance(bd, list) and len(bd) == deg, where, "basis_denominators must have length deg")
        _require(all(isinstance(r, list) and len(r) == deg and all(isinstance(c, int) for c in r) for r in bm),
                 where, "basis_matrix entries must be ints")
        _require(all(isinstance(x, int) and x >= 1 for x in bd), where, "denominators must be positive ints")
        basis = [[Fraction(num, den) for num in row] for row, den in zip(bm, bd)]

    an = []
    for i, vec in enumerate(an_raw):
        w = f"{where}.an[{i}]"
        _require(isinstance(vec, list) and len(vec) == deg, w, f"coefficient vector must have length {deg}")
        _require(all(isinstance(c, int) for c in vec), w, "coefficients must be ints (no floats)")
        if basis is None:
            an.append(tuple(Fraction(c) for c in vec))
        else:
            acc = [Fraction(0)] * deg
            for c, row in zip(vec, basis):
                if c:
                    acc = [x + c * y for x, y in zip(acc, row)]
            an.append(tuple(acc))

    rec = NewformRecord(label, level, 2, tuple(poly), tuple(an))
    one = tuple([Fraction(1)] + [Fraction(0)] * (deg - 1))
    _require(rec.an[0] == one, where, "a_1 must be 1")
    # multiplicativity spot check where gcd conditions hold
    if rec.bound >= 6 and level % 2 and level % 3:
        _require(rec.an[5] == rec._kmul(rec.an[1], rec.an[2]), where, "a_6 != a_2 * a_3")
    return rec


def parse_newforms(data, where="newforms") -> list[NewformRecord]:
    _require(isinstance(data, list), where, "top level must be a list")
    out = []
    for i, item in enumerate(data):
        rec = _parse_record(item, f"{where}[{i}]")
        if rec is not None:
            out.append(rec)
    return out


def _common_denominator(vec):
    """Fractions -> (integer numerators, their lcm denominator)."""
    den = lcm(*(c.denominator for c in vec))
    return [c.numerator * (den // c.denominator) for c in vec], den
