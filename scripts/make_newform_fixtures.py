#!/usr/bin/env python3
"""Dev tooling: generate the bundled newform q-expansion fixtures.

The newform Galois orbits of weight 2 on Gamma0(N), with their a_p in the
power basis of a Hecke eigenvalue theta, come from `eiscong.modsym`
(integer Manin symbols, the characteristic polynomial factored over Z by
`eiscong.ffield.factor_over_z`).  This script holds only the fixture
policy: the generator of each coefficient field (`finalize_orbit`, with
`PREFERRED_POLYS`), the published basis of 725.2.a.l, LMFDB-style labels
from trace vectors, the JSON records, and the checks against the
coefficients the paper displays (`check_paper_data`) and against known
small levels (`selfcheck`).  The a_n come from the a_p by one Hecke
recursion over n: with p the least prime of n, a_n = a_p a_{n/p}, minus
p a_{n/p^2} when p^2 | n and p does not divide N (Diamond-Shurman, *A First
Course in Modular Forms*, section 5.8).  Dense linear algebra over Q on the d <= 6
dimensional coefficient vectors scales each row to integers and eliminates
with the library's fraction-free `eiscong.lattices.echelon`.  The results are
frozen as JSON under src/eiscong/data/.

Run:  python scripts/make_newform_fixtures.py [--selfcheck]
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import lcm
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
DATA_DIR = HERE.parent / "src" / "eiscong" / "data"

from eiscong import polys  # noqa: E402
from eiscong.arith import prime_divisors  # noqa: E402
from eiscong.lattices import echelon, hnf  # noqa: E402
from eiscong.modsym import newform_orbits  # noqa: E402


# ------------------------------------------------------------- dense Q linalg


def echelon_q(rows):
    """`echelon` on rational rows, each scaled to integers first: (R, pivot
    columns), with R[i] / R[i][pivots[i]] the reduced row echelon form."""
    ints = []
    for row in rows:
        row = [Fraction(x) for x in row]
        m = lcm(*(x.denominator for x in row))
        ints.append([x.numerator * (m // x.denominator) for x in row])
    return echelon(ints)


def solve(A, B):
    """The X with A X = B (A rows x n of full column rank, B rows x m, the
    system consistent)."""
    n = len(A[0])
    R, piv_cols = echelon_q([list(a) + list(b) for a, b in zip(A, B)])
    assert piv_cols == list(range(n)), "inconsistent, or not of full column rank"
    return [[Fraction(x, row[i]) for x in row[n:]] for i, row in enumerate(R)]


def columns(vecs):
    """The matrix whose columns are the given vectors."""
    return [list(col) for col in zip(*vecs)]


# --------------------------------------------------------------- newforms


class Orbit:
    """A Galois orbit of newforms: eigenvalues in K = Q[x]/(g)."""

    def __init__(self, orbit):
        self.level = orbit.level
        self.dim = len(orbit.theta_poly) - 1
        self.field_poly = None      # ascending, monic, the chosen generator's min poly
        self.ap = {}                # prime -> coeff vector (Fractions) in generator power basis
        self.label = None
        self.traces = None
        self._theta_poly = list(orbit.theta_poly)  # min poly of theta (the T-combination eigenvalue)
        self._theta_ap = {p: list(v) for p, v in orbit.ap.items()}

    def an_vectors(self, bound):
        """a_n for n=1..bound in the generator power basis (Fraction vectors),
        by one Hecke recursion over n (Diamond-Shurman, section 5.8): with p the
        least prime of n, a_n = a_p a_{n/p}, minus p a_{n/p^2} when p^2 | n
        and p does not divide the level."""
        g = self.field_poly  # monic, so products reduce by divmod_monic
        an = [None, [Fraction(1)] + [Fraction(0)] * (self.dim - 1)]
        for n in range(2, bound + 1):
            p = prime_divisors(n)[0]
            a = polys.divmod_monic(polys.mul(self.ap[p], an[n // p]), g)[1]
            if n % (p * p) == 0 and self.level % p:
                a = [x - p * y for x, y in zip(a, an[n // (p * p)])]
            an.append(a)
        return an[1:]

    def trace_vector(self, bound):
        """[tr(a_1), ..., tr(a_bound)] via Newton power sums of field_poly."""
        d = self.dim
        g = self.field_poly
        # power sums s_k of the roots of g (monic, ascending)
        s = [Fraction(d)]
        c = [Fraction(x) for x in g]  # c[0..d], c[d] = 1
        for k in range(1, bound + 5):
            acc = Fraction(0)
            for i in range(1, min(k, d) + 1):
                acc -= c[d - i] * s[k - i]
            if k <= d:
                acc -= k * c[d - k]
            s.append(acc)
        out = []
        for vec in self.an_vectors(bound):
            t = sum(vec[i] * s[i] for i in range(d))
            assert t.denominator == 1
            out.append(int(t))
        return out


def extract_newforms(N, prime_bound):
    """All weight-2 newform Galois orbits of level N with a_p for p <= prime_bound."""
    return [Orbit(o) for o in newform_orbits(N, prime_bound)]


# --------------------------------------- choose generator / presentation


def _minpoly_and_powers(gamma, theta_poly):
    """Min poly of gamma (element of Q[x]/(theta_poly)) and its power matrix."""
    d = len(theta_poly) - 1
    pows = [[Fraction(1)] + [Fraction(0)] * (d - 1)]
    for _ in range(d):
        pows.append(polys.divmod_monic(polys.mul(pows[-1], gamma), theta_poly)[1])
    # the first non-pivot column k of [1, gamma, ..., gamma^d] gives
    # gamma^k = sum_{i<k} c_i gamma^i, with c_i read off the pivot rows
    R, piv = echelon_q(columns(pows))
    k = len(piv)
    assert piv == list(range(k)), "powers of gamma past a dependent one must stay dependent"
    minpoly = [-Fraction(R[i][k], R[i][i]) for i in range(k)] + [Fraction(1)]
    return minpoly, pows[:k]


PREFERRED_POLYS = {
    725: [
        [-2, 0, 1],                    # x^2 - 2       (field of 725.2.a.b)
        [-1, 0, 41, 0, -13, 0, 1],     # x^6 - 13x^4 + 41x^2 - 1  (725.2.a.l)
    ],
}


def finalize_orbit(orbit, prime_bound):
    """Pick a field generator and express all a_p in its power basis."""
    d = orbit.dim
    tp = orbit._theta_poly
    theta_ap = orbit._theta_ap
    if d == 1:
        orbit.field_poly = [0, 1]
        orbit.ap = {p: [v[0]] for p, v in theta_ap.items()}
        return

    candidates = []
    a2 = theta_ap[2]
    a3 = theta_ap[3]
    one = [Fraction(1)] + [Fraction(0)] * (d - 1)
    candidates.append(a2)
    candidates.append([x - y for x, y in zip(a2, one)])
    candidates.append([x + y for x, y in zip(a2, one)])
    candidates.append(a3)
    candidates.append([x + y for x, y in zip(a2, a3)])
    candidates.append([x - y for x, y in zip(a2, a3)])
    for p in sorted(theta_ap):
        candidates.append(theta_ap[p])

    preferred = [ [Fraction(c) for c in poly] for poly in PREFERRED_POLYS.get(orbit.level, []) ]
    best = None
    for gamma in candidates:
        minpoly, pows = _minpoly_and_powers(gamma, tp)
        if len(minpoly) - 1 != d:
            continue
        if any(c.denominator != 1 for c in minpoly):
            continue
        entry = (minpoly, pows)
        if any(minpoly == pref for pref in preferred):
            best = entry
            break
        if best is None:
            best = entry
    assert best is not None, "no generator found"
    minpoly, pows = best
    # basis change: solve G c = a_p, column j of G = gamma^j in theta basis
    orbit.field_poly = [int(c) for c in minpoly]
    C = solve(columns(pows), columns(theta_ap.values()))
    orbit.ap = dict(zip(theta_ap, columns(C)))
    # verify: a_2 reconstructed
    for p, vec in theta_ap.items():
        rec = [Fraction(0)] * d
        for j, cj in enumerate(orbit.ap[p]):
            rec = [x + cj * y for x, y in zip(rec, pows[j])]
        assert rec == list(vec)


# -------------------------------------------------------------- packaging


PAPER_BASIS_725_L = {
    "field_poly": [-1, 0, 41, 0, -13, 0, 1],
    "basis_matrix": [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [-4, 0, 1, 0, 0, 0],
        [5, 0, -8, 0, 1, 0],
        [0, 35, 0, -12, 0, 1],
        [0, -47, 0, 14, 0, -1],
    ],
    "basis_denominators": [1, 1, 1, 2, 2, 2],
}


def record_for_orbit(orbit, bound):
    an = orbit.an_vectors(bound)
    rec = {
        "label": orbit.label,
        "level": orbit.level,
        "weight": 2,
        "field_poly": orbit.field_poly,
    }

    def integral_coordinates(basis_rows):
        # the an in the basis with these elements, which must be integral
        C = solve(columns(basis_rows), columns(an))
        assert all(x.denominator == 1 for row in C for x in row), "basis is not integral for an"
        return [[int(x) for x in c] for c in columns(C)]

    if orbit.level == 725 and orbit.field_poly == PAPER_BASIS_725_L["field_poly"]:
        basis = PAPER_BASIS_725_L
        rows = [
            [Fraction(num, den) for num in row]
            for row, den in zip(basis["basis_matrix"], basis["basis_denominators"])
        ]
        rec["basis_matrix"] = basis["basis_matrix"]
        rec["basis_denominators"] = basis["basis_denominators"]
        rec["an"] = integral_coordinates(rows)
        return rec
    if all(all(x.denominator == 1 for x in v) for v in an):
        rec["an"] = [[int(x) for x in v] for v in an]
        return rec
    # general fallback: HNF basis of the lattice spanned by the an (a ring, so
    # full rank); coordinates in that basis are integral by construction
    D = lcm(*(x.denominator for v in an for x in v))
    H = hnf([[int(x * D) for x in v] for v in an])
    assert len(H) == orbit.dim, "an lattice is not full rank"
    rec["basis_matrix"] = H
    rec["basis_denominators"] = [D] * orbit.dim
    rec["an"] = integral_coordinates([[Fraction(x, D) for x in h] for h in H])
    return rec


def assign_labels(orbits, trace_len=40):
    keyed = []
    for o in orbits:
        o.traces = o.trace_vector(trace_len)
        keyed.append(((o.dim, o.traces), o))
    keyed.sort(key=lambda t: t[0])
    keys = [(d, tuple(tr)) for (d, tr), _ in keyed]
    assert len(set(keys)) == len(keys), "trace vectors do not separate orbits"
    letters = "abcdefghijklmnopqrstuvwxyz"
    for i, (_, o) in enumerate(keyed):
        o.label = f"{o.level}.2.a.{letters[i]}"
    return [o for _, o in keyed]


# -------------------------------------------------------------- validation


def check_paper_data(by_label):
    """Assert the generated data matches every coefficient the paper displays."""
    f121 = by_label["121.2.a.d"]
    want = [1, 2, -1, 2, 1, -2, 2, 0, -2, 2, 0, -2]
    got = [v[0] for v in f121["an"][:12]]
    assert got == want, f"121.2.a.d mismatch: {got}"

    f725b = by_label["725.2.a.b"]
    assert f725b["field_poly"] == [-2, 0, 1]
    want_b = [
        [1, 0], [1, 1], [-1, -1], [1, 2], [0, 0], [-3, -2], [0, 2],
        [3, 1], [0, 2], [0, 0], [1, -1], [-5, -3], [1, 2], [4, 2],
    ]
    got_b = f725b["an"][:14]
    assert got_b == want_b, f"725.2.a.b mismatch: {got_b}"

    f725l = by_label["725.2.a.l"]
    assert f725l["field_poly"] == [-1, 0, 41, 0, -13, 0, 1]
    want_l = [
        [1, 0, 0, 0, 0, 0],
        [0, 1, 0, 0, 0, 0],
        [0, 1, 0, 0, -1, 0],
        [2, 0, 1, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
        [2, 0, 0, -1, 0, 0],
        [0, -1, 0, 0, 1, 1],
        [0, 2, 0, 0, 1, 1],
        [2, 0, -1, -1, 0, 0],
    ]
    got_l = f725l["an"][:9]
    assert got_l == want_l, f"725.2.a.l mismatch: {got_l}"

    # 234: five rational newforms; the one congruent to the ord2/crit13 series
    # mod 7 must exist: a_r = chi3(r) (1+r) mod 7 for r coprime to 234, a_2 = -1,
    # a_13 = 13, a_3 = 0 mod 7.
    lv234 = [rec for rec in by_label.values() if rec["level"] == 234]
    assert len(lv234) == 5 and all(rec["field_poly"] == [0, 1] for rec in lv234)

    def chi3(n):
        return 0 if n % 3 == 0 else (1 if n % 3 == 1 else -1)

    def congruent_mod(rec, ell, eis):
        return all((rec["an"][n - 1][0] - eis(n)) % ell == 0 for n in range(1, 85))

    def eis_ord2_crit13(n):
        # multiplicative: a_p = chi3(p)(1+p) for p coprime to 234, a_2 = -1,
        # a_13 = 13, a_3 = 0; weight-2 recurrence at good p
        return _eis_an(n, {2: -1, 13: 13, 3: 0}, chi3)

    hits = [rec["label"] for rec in lv234 if congruent_mod(rec, 7, eis_ord2_crit13)]
    assert hits == ["234.2.a.b"], f"mod-7 congruence hits at 234: {hits}"
    print("paper-data checks passed")


def _eis_an(n, special, chi):
    out = 1
    m = n
    for p in prime_divisors(n):
        e = 0
        while m % p == 0:
            m //= p
            e += 1
        if p in special:
            ap = special[p]
            val = ap ** e
        else:
            # a_{p^e} for eigenvalue chi(p)(1+p), weight 2
            prev2, prev1 = 1, chi(p) * (1 + p)
            for _ in range(e - 1):
                prev2, prev1 = prev1, chi(p) * (1 + p) * prev1 - p * prev2
            val = prev1
        out *= val
    return out


def selfcheck():
    """Known small levels: X0(11), X0(23), X0(29), X0(37)."""
    orbits = extract_newforms(11, 13)
    for o in orbits:
        finalize_orbit(o, 13)
    orbits = assign_labels(orbits, trace_len=13)
    f = orbits[0]
    assert f.dim == 1
    ap = {p: v[0] for p, v in f.ap.items()}
    assert ap == {2: -2, 3: -1, 5: 1, 7: -2, 11: 1, 13: 4}, ap
    print("level 11 OK:", ap)

    orbits = extract_newforms(23, 7)
    assert len(orbits) == 1 and orbits[0].dim == 2
    # a_2 has min poly x^2 + x - 1
    mp, _ = _minpoly_and_powers(orbits[0]._theta_ap[2], orbits[0]._theta_poly)
    assert [int(c) for c in mp] == [-1, 1, 1], mp
    print("level 23 OK")

    orbits = extract_newforms(37, 7)
    for o in orbits:
        finalize_orbit(o, 7)
    assert sorted(o.dim for o in orbits) == [1, 1]
    aps = sorted((o.ap[2][0], o.ap[3][0]) for o in orbits)
    assert aps == [(-2, -3), (0, 1)], aps
    print("level 37 OK")

    orbits = extract_newforms(29, 7)
    assert len(orbits) == 1 and orbits[0].dim == 2
    mp, _ = _minpoly_and_powers(orbits[0]._theta_ap[2], orbits[0]._theta_poly)
    assert [int(c) for c in mp] == [-1, 2, 1], mp  # a_2 = -1 ± sqrt2
    print("level 29 OK")


def build_level(N, bound):
    orbits = extract_newforms(N, max(bound, 13))
    for o in orbits:
        finalize_orbit(o, bound)
    orbits = assign_labels(orbits, trace_len=min(30, bound))
    recs = [record_for_orbit(o, bound) for o in orbits]
    return recs


def main():
    if "--selfcheck" in sys.argv:
        selfcheck()
        return
    DATA_DIR.mkdir(parents=True, exist_ok=True)
    plans = [(121, 32), (234, 94), (725, 160)]
    by_label = {}
    for N, bound in plans:
        recs = build_level(N, bound)
        path = DATA_DIR / f"newforms_{N}.json"
        path.write_text(json.dumps(recs, indent=1))
        for rec in recs:
            by_label[rec["label"]] = rec
        print(f"wrote {path} ({len(recs)} orbits, dims {[len(r['field_poly'])-1 for r in recs]})")
    check_paper_data(by_label)


if __name__ == "__main__":
    main()
