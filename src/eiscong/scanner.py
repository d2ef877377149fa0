"""Congruence detection between built Eisenstein series and newforms.

`scan(params, record, q, B)` compares the series E = build_E(params, B)
with one newform record; the scan memo builds E, so the series scanned is
always the one its params fix.

Both coefficient rings are reduced into a common F_{q^r}: the Eisenstein side
through a root of Phi_k (k = order of phi; at ramified q this realizes the
reduction zeta -> 1 on the q-part), the newform side through a root of its
defining polynomial.  r is minimal so that both acquire roots.  A match
certifies a_n congruences for all n up to the bound (Sturm by default).

`scan` tries every (zeta-root, poly-root) pair, in sorted order, and
certifies the first that matches.  Whether a pair matches does not change
when x -> x^q is applied to both roots, since Frobenius fixes the reduced
integers, so the certified pair is the smallest of its Frobenius orbit.

Both sides are normalized eigenforms on Gamma0(N) with trivial character:
a_1 = 1, a_mn = a_m a_n for coprime m and n, a_{p^(k+1)} = a_p a_{p^k} -
p a_{p^(k-1)} for p not dividing N, and a_{q^k} = a_q^k for q | N
(Diamond-Shurman 5.8).  So a_p congruent for every prime p <= B gives a_n
congruent for every n <= B, and the first mismatch is always at a prime.
`scan` compares a_n only for n in the index list {1} and the primes up to
the bound.  a_1 stays in it because `scan` accepts a series with d =
ML/(T1 T2) > 1, whose a_1 is 0.

Both sides store each a_n as the same canonical integer pair (num, den),
power-basis numerators over one denominator (`QExpansion.an`,
`NewformRecord.an`), and `scan` reads `owner.an` as stored for a series and
for a record alike; it builds no element.  num/den reduces at a root
through the root's power table (root^0, ..., root^(d-1)): one integer dot
product mod q per coordinate of F, times den^-1 mod q.  Each series or
record keeps, per F and root, one list of its reduced a_n along the index
list, grown in chunks (its first 4 entries, a_1, a_2, a_3, a_5, then to 16,
64, ... entries and at most the whole list) as the pair loop compares
further; a chunk may reduce a_n past a pair's first mismatch, which another
pair may then read.  An a_n with q in its denominator is never reduced: the
scan raises when a pair's comparison reaches it, and not before.  The
unusable index is the first in the list whose denominator q divides; an a_n
off the list is never read, and for an eigenform its denominator divides a
product of a_p denominators, so the first unusable n is always on it.

A scan memo, the dict that `full_scan` passes to every `scan`, holds what the
inputs fix across scans: the series E once per (params, B), built at its
first scan, so a series whose every l is skipped is never built; one F_{q^r}
per (q, r); per (phi order, field_poly, q) the reduction embeddings; the
factorization of each polynomial, Phi_k or a field polynomial, once per
(polynomial, q), which picks r and from which its roots in every F of
characteristic q are read, and those roots once per F; one power table per
(root, F, d); the index list per bound; and, per series and per newform
record, F and index list, the lists of reduced coefficients.  It holds no state between `full_scan` calls.  A (newform, l)
pair whose coefficients have l in a denominator is skipped by `full_scan`
with the reason; the rest of the scan runs.  `full_scan` takes its records
from `newforms.newforms_for_level` unless it is given them, and
`FullScanResult.to_json` is the `scan --json` payload.

The certified pair is the one choice of a prime above l: `full_scan` hands
its field and zeta-root to `descriptor`, so the printed ideal is the one at
which the congruence was proved.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import mul

from .arith import (DomainError, divisors, is_p_good, is_prime, primes_up_to, record,
                    sturm_bound)
from .characters import enumerate_characters
from .cusps import new_dimension
from .cyclotomic import cyclotomic_polynomial
from .eisenstein import EisensteinParams, build_E
from .ffield import FiniteField, factor_mod_q, roots_in_field
from .ideals import (IdealDescriptor, candidate_characteristics, descriptor,
                     eisenstein_character)
from .newforms import NewformDataError, NewformRecord, newforms_for_level


class UnsupportedPrimeError(DomainError):
    """Reduction mod q is ill-defined (q divides a coefficient denominator)."""


@record
class CongruenceReport:
    eisenstein: str
    newform: str
    prime: int
    residue_degree: int
    embedding: tuple
    checked_bound: int
    matched: bool
    first_mismatch: int | None

    def to_json(self) -> dict:
        return {
            "eisenstein": self.eisenstein,
            "newform": self.newform,
            "prime": self.prime,
            "residue_degree": self.residue_degree,
            "embedding": [list(self.embedding[0]), list(self.embedding[1])],
            "checked_bound": self.checked_bound,
            "matched": self.matched,
            "first_mismatch": self.first_mismatch,
        }


def reduction_embeddings(k, field_poly, q: int, *, memo: dict | None = None):
    """(r, F, pairs): minimal r with roots of Phi_k and of field_poly in
    F_{q^r}, and all (zeta-root, poly-root) pairs, sorted; `scan` certifies
    the first pair that matches, the least of its Frobenius orbit.

    `memo` (a scan memo, see `scan`) shares between calls the field per
    (q, r), the factorization mod q of Phi_k and of field_poly, from which r
    and their roots in F are read, and those roots per F."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if memo is None:
        memo = {}
    zeta_poly, poly = cyclotomic_polynomial(k), tuple(field_poly)
    zeta_factors, factors = (_shared(memo, ("factors", f, q), factor_mod_q, list(f), q)
                             for f in (zeta_poly, poly))
    r = min(lcm(d, e) for d, _ in zeta_factors for e, _ in factors)
    F = _shared(memo, ("field", q, r), FiniteField.create, q, r)
    zroots, groots = (_shared(memo, ("roots", f, F), roots_in_field, fs, F)
                      for f, fs in ((zeta_poly, zeta_factors), (poly, factors)))
    assert zroots and groots
    return r, F, [(z, g) for z in zroots for g in groots]


def _shared(memo: dict, key, fn, *args):
    """fn(*args), computed once per key of `memo`."""
    if key not in memo:
        memo[key] = fn(*args)
    return memo[key]


def _power_table(root, F: FiniteField, d: int):
    """root^0, ..., root^(d-1) by coordinate: r tuples of d ints."""
    powers = [F.one()]
    for _ in range(d - 1):
        powers.append(F.mul(powers[-1], root))
    return tuple(zip(*powers))


class _Reductions:
    """One owner's a_n = num/den, the pairs of `owner.an` at the n of an index
    list, reduced into F: one list per root, in the index list's order, which
    `upto` extends by one comprehension per coordinate of F.  Only those a_n
    are reduced and only their denominators inverted, and none with q | den:
    `usable` counts the entries before the first of them, which
    `_first_difference` reports when a comparison reaches it.  Power tables
    are read from and added to `tables`, keyed (root, F, d), which all owners
    share."""

    def __init__(self, owner, F: FiniteField, indices: tuple, tables: dict):
        q = F.q
        an = [owner.an[n - 1] for n in indices]
        self.owner, self.F, self.an, self.tables = owner, F, an, tables
        inverses = {den: pow(den, -1, q) for den in {den for _, den in an} if den % q}
        self.usable = next((i for i, (_, den) in enumerate(an) if den not in inverses), len(an))
        self.error = (None if self.usable == len(an) else
                      f"denominator {an[self.usable][1]} not invertible mod {q}")
        self.invs = [inverses[den] for _, den in an[:self.usable]]
        self.degree = len(an[0][0])
        self.lists: dict = {}

    def upto(self, root, m: int) -> list:
        """root's list, holding at least its first m entries (m <= usable)."""
        out = self.lists.get(root)
        if out is None:
            out = self.lists[root] = []
        n = len(out)
        if n < m:
            F, q = self.F, self.F.q
            table = _shared(self.tables, (root, F, self.degree),
                            _power_table, root, F, self.degree)
            chunk = tuple(zip(self.an[n:m], self.invs[n:m]))
            out.extend(zip(*[[sum(map(mul, num, col)) * inv % q for (num, _), inv in chunk]
                             for col in table]))
        return out


def _index_list(B: int) -> tuple:
    """The n that `scan` compares up to B: 1 and the primes."""
    return (1, *primes_up_to(B))


def _reductions(memo: dict, owner, F: FiniteField, indices: tuple) -> _Reductions:
    """owner's _Reductions in F along `indices`, keyed on owner's identity
    (newform labels may repeat); the _Reductions holds owner, which keeps that
    identity taken."""
    tables = _shared(memo, "powers", dict)
    return _shared(memo, ("reduced", id(owner), F, indices), _Reductions, owner, F, indices,
                   tables)


_PREFIX, _STEP = 4, 4  # chunk ends 4, 16, 64, ... entries: most pairs differ at a_2 or a_3


def _first_difference(lhs: _Reductions, zr, rhs: _Reductions, gr, indices: tuple):
    """The first n in `indices` with lhs's a_n at zr != rhs's a_n at gr, or
    None.  The lists are compared chunk by chunk, by position in `indices`;
    an a_n with q in its denominator raises UnsupportedPrimeError, lhs's
    first, when the comparison reaches it."""
    stop = min(len(indices), lhs.usable, rhs.usable)
    i, end = 0, _PREFIX
    while i < stop:
        end = min(end, stop)
        a, b = lhs.upto(zr, end), rhs.upto(gr, end)
        if a[i:end] != b[i:end]:
            return indices[next(j for j in range(i, end) if a[j] != b[j])]
        i, end = end, end * _STEP
    if stop < len(indices):
        raise UnsupportedPrimeError(lhs.error if lhs.usable == stop else rhs.error)
    return None


def scan(
    params: EisensteinParams,
    record: NewformRecord,
    q: int,
    B: int | None = None,
    *,
    memo: dict | None = None,
) -> CongruenceReport:
    """Coefficientwise congruence check of the series E = build_E(params, B)
    against one newform at q.

    The report certifies the first embedding pair, in sorted order, at which
    a_1 and every a_p for primes p up to B match, and so every a_n up to B
    for eigenforms; when none does, it names the first pair and the first n
    at which that pair fails.

    `memo` is the scan memo.  It holds E once per (params, B), maps (phi
    order, field_poly, q) to the reduction_embeddings result, and also holds
    what those results share (the field per (q, r), the factorization of
    Phi_k and of field_poly per q and their roots per F), the root power
    tables, the index list per B and the lists of reduced coefficients of E
    and of the record.  A caller that scans many pairs passes one dict, so
    that each of these is computed once."""
    if params.N != record.level:
        raise DomainError(f"level mismatch: {params.N} vs {record.level}")
    if B is None:
        B = sturm_bound(params.N)
    if B < 1:
        raise DomainError(f"the bound must be at least 1 (got {B})")
    if B > record.bound:
        raise DomainError(f"bound {B} exceeds the {record.bound} coefficients of {record.label}")
    if memo is None:
        memo = {}
    key = (params.phi.order, record.field_poly, q)
    if key not in memo:
        memo[key] = reduction_embeddings(*key, memo=memo)
    r, F, pairs = memo[key]

    E = _shared(memo, ("E", params, B), build_E, params, B)
    indices = _shared(memo, ("indices", B), _index_list, B)
    lhs, rhs = (_reductions(memo, owner, F, indices) for owner in (E, record))

    first_mismatch = None
    for zr, gr in pairs:
        n = _first_difference(lhs, zr, rhs, gr, indices)
        if n is None:
            return CongruenceReport(
                params.label(), record.label, q, r, (zr, gr), B, True, None
            )
        if first_mismatch is None:
            first_mismatch = n
    return CongruenceReport(
        params.label(), record.label, q, r, pairs[0], B, False, first_mismatch
    )


@record
class ScanHit:
    report: CongruenceReport
    params: EisensteinParams
    descriptor: IdealDescriptor
    largest_M: bool


@record
class FullScanResult:
    level: int
    p: int
    bound: int
    candidate_primes: tuple[int, ...]
    reports: tuple[CongruenceReport, ...]
    hits: tuple[ScanHit, ...]
    skipped: tuple[str, ...]

    def to_json(self) -> dict:
        """The `scan --json` payload."""
        return {
            "level": self.level,
            "p": self.p,
            "bound": self.bound,
            "candidate_primes": list(self.candidate_primes),
            "hits": [
                {
                    "eisenstein": h.report.eisenstein,
                    "newform": h.report.newform,
                    "prime": h.report.prime,
                    "largest_M": h.largest_M,
                    "descriptor": h.descriptor.to_json(),
                }
                for h in self.hits
            ],
            "reports": [r.to_json() for r in self.reports],
            "skipped": list(self.skipped),
        }


def eisenstein_basis(N: int, p: int) -> list[EisensteinParams]:
    """The eigenbasis {E_{phi,M,N'/M}} of non-rational Eisenstein series for a
    p-good level: phi over nontrivial characters mod p, M L = N'."""
    if not is_p_good(N, p):
        raise DomainError(f"N={N} is not {p}-good")
    Nprime = N // (p * p)
    out = []
    for phi in enumerate_characters(p):
        if phi.is_trivial():
            continue
        for M in divisors(Nprime):
            out.append(EisensteinParams(phi, N, M, Nprime // M))
    return out


def full_scan(
    N: int,
    p: int,
    bound: int | None = None,
    records: list[NewformRecord] | None = None,
) -> FullScanResult:
    """Scan the whole eigenbasis against all newforms at every candidate
    residual characteristic l coprime to 6p; emit a descriptor per certified
    congruence (pairs whose reduced character is trivial are skipped: those
    would be rational Eisenstein congruences, out of scope).

    `records` defaults to `newforms_for_level(N)`, offline; no records at a
    level with newforms is a NewformDataError."""
    if bound is not None and bound < 1:
        raise DomainError(f"the bound must be at least 1 (got {bound})")
    if records is None:
        records = newforms_for_level(N)
    if not records and (dim := new_dimension(N)):
        raise NewformDataError(
            f"no newform data for level {N} (S_2^new has dimension {dim}); "
            f"run `eiscong fetch --level {N}` first"
        )
    if bound is None:
        bound = sturm_bound(N)
    for rec in records:
        if rec.bound < bound:
            raise DomainError(
                f"newform {rec.label} has {rec.bound} coefficients < bound {bound}"
            )
    cand = candidate_characteristics(N, p)
    ls = tuple(sorted(l for l in cand.union if gcd(l, 6 * p) == 1))
    reports: list[CongruenceReport] = []
    skipped: list[str] = []
    raw_hits: list[tuple[CongruenceReport, EisensteinParams, IdealDescriptor]] = []
    memo: dict = {}  # the scan memo: one E per series, one root search per field polynomial and F
    unusable: set[tuple[str, int]] = set()  # (newform, l) with l in a denominator
    for params in eisenstein_basis(N, p):
        for l in ls:
            if eisenstein_character(params.phi, l).is_trivial():
                skipped.append(
                    f"{params.label()} at l={l}: reduced character is trivial (rational case)"
                )
                continue
            for rec in records:
                if (rec.label, l) in unusable:
                    continue
                try:
                    rep = scan(params, rec, l, bound, memo=memo)
                except UnsupportedPrimeError as exc:
                    unusable.add((rec.label, l))
                    skipped.append(f"{rec.label} at l={l}: {exc} (reduction undefined)")
                    continue
                reports.append(rep)
                if rep.matched:
                    F = memo[params.phi.order, rec.field_poly, l][1]
                    desc = descriptor(params, F, rep.embedding[0])
                    raw_hits.append((rep, params, desc, (rep.prime, rep.newform, desc.render())))
    # mark the largest certifying M within each (l, ideal, newform) group
    group_max: dict = {}
    for _, params, _, group in raw_hits:
        group_max[group] = max(group_max.get(group, 0), params.M)
    hits = [ScanHit(rep, params, desc, params.M == group_max[group])
            for rep, params, desc, group in raw_hits]
    return FullScanResult(N, p, bound, ls, tuple(reports), tuple(hits), tuple(skipped))
