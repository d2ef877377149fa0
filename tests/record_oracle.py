"""Frozen dataclasses that `eiscong.arith.record` must behave like.

`CongruenceReport` is the scanner's report class as it was declared before
`record` replaced `@dataclass(frozen=True)` in the library (fields only).
`Span` exercises what the library classes use besides plain fields: a
class-level default, a `__post_init__` that validates, and a field that
`__post_init__` computes.  `tests/test_record.py` declares the same classes
with `record` and compares them.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CongruenceReport:
    eisenstein: str
    newform: str
    prime: int
    residue_degree: int
    embedding: tuple
    checked_bound: int
    matched: bool
    first_mismatch: int | None


@dataclass(frozen=True)
class Span:
    lo: int
    hi: int = 10
    width: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty span {self.lo}..{self.hi}")
        object.__setattr__(self, "width", self.hi - self.lo)
