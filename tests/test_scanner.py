import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest

import ffield_oracle
from helpers import (character_with_value, count_calls, fixture_script, hit_labels,
                     integer_coefficient, newform_coefficient, reduce_coefficient)

from eiscong.arith import DomainError, primes_up_to, sturm_bound
from eiscong.characters import quadratic_character
from eiscong.eisenstein import EisensteinParams, build_E, tl_eigenvalue
from eiscong.ffield import FiniteField
from eiscong.ideals import cuspidal_order, eisenstein_character
from eiscong.newforms import NewformDataError, NewformRecord, bundled_newforms, parse_newforms
from eiscong.scanner import (UnsupportedPrimeError, _power_table, eisenstein_basis,
                             full_scan, reduction_embeddings, scan)


def _reduce_newform(vec, root, F):
    num, den = integer_coefficient(vec)
    return reduce_coefficient(num, den, _power_table(root, F, len(num)), F.q)


def _reduce_element(x, root, F):
    return reduce_coefficient(x.num, x.den, _power_table(root, F, len(x.num)), F.q)


def test_reduction_embeddings():
    r, F, pairs = reduction_embeddings(2, [0, 1], 5)  # Q(zeta_2)-side, rational form
    assert r == 1 and len(pairs) == 1
    r, F, pairs = reduction_embeddings(10, [0, 1], 5)  # ramified at 5
    assert r == 1 and [z for z, _ in pairs] == [(4,)]
    r, F, pairs = reduction_embeddings(4, [-1, 0, 41, 0, -13, 0, 1], 7)
    assert r == 2 and F.size == 49
    assert len(pairs) == 2 * 4
    # Q(zeta_11)-side at q=5 has residue degree 5
    r, F, pairs = reduction_embeddings(11, [0, 1], 5)
    assert r == 5
    # y^3 - 1 = (y - 1)^3 mod 3 has f' = 0; its root 1 needs no extension
    r, F, pairs = reduction_embeddings(4, [-1, 0, 0, 1], 3)
    assert r == 2 and [g for _, g in pairs] == [(1, 0), (1, 0)]


def test_eisenstein_basis():
    assert len(eisenstein_basis(725, 5)) == 6
    assert len(eisenstein_basis(121, 11)) == 9
    assert len(eisenstein_basis(234, 3)) == 4
    with pytest.raises(DomainError):
        eisenstein_basis(10, 3)


def test_scan_121():
    phi = quadratic_character(11)
    P = EisensteinParams(phi, 121, 1, 1)
    E = build_E(P, 22)
    recs = bundled_newforms(121)
    rec_d = next(r for r in recs if r.label == "121.2.a.d")
    rep = scan(E, P, rec_d, 5)
    assert rep.matched and rep.checked_bound == 22
    # a_2: -3 = 2 mod 5 is the first coefficient where the congruence bites
    others = [r for r in recs if r.label != "121.2.a.d"]
    assert all(not scan(E, P, r, 5).matched for r in others)
    with pytest.raises(DomainError):
        scan(E, P, rec_d, 5, B=23)  # beyond Eisenstein precision
    for B in (0, -1):  # would certify every pair vacuously
        with pytest.raises(DomainError):
            scan(E, P, rec_d, 5, B=B)


def test_scan_725_b_and_l():
    recs = bundled_newforms(725)
    rec_b = next(r for r in recs if r.label == "725.2.a.b")
    rec_l = next(r for r in recs if r.label == "725.2.a.l")
    B = sturm_bound(725)
    phi2 = quadratic_character(5)
    for M, L in ((1, 29), (29, 1)):
        P = EisensteinParams(phi2, 725, M, L)
        E = build_E(P, B)
        rep = scan(E, P, rec_b, 7)
        assert rep.matched and rep.residue_degree == 1
    phi = character_with_value(5, 2, 4, 1)
    for e in (1, 3):
        P = EisensteinParams(phi.power(e), 725, 1, 29)
        E = build_E(P, B)
        rep = scan(E, P, rec_l, 7)
        assert rep.matched and rep.residue_degree == 2
        assert not scan(E, P, rec_b, 7).matched


def test_full_scan_121():
    res = full_scan(121, 11)
    assert res.candidate_primes == (5,)
    assert res.bound == 22
    hits = hit_labels(res)
    assert all(nf == "121.2.a.d" and q == 5 for _, nf, q in hits)
    orders = sorted({h.params.phi.order for h in res.hits})
    assert orders == [2, 10]  # quadratic plus the four order-10 conjugates
    assert len(res.hits) == 5
    assert len(res.skipped) == 4  # order-5 characters reduce to the trivial one
    # every certified hit has l dividing the cuspidal order (theorem check)
    for h in res.hits:
        assert cuspidal_order(h.params) % h.report.prime == 0
    # identical displayed ideal across conjugate hits
    assert len({h.descriptor.render() for h in res.hits}) == 1
    with pytest.raises(DomainError):
        full_scan(121, 11, bound=0)  # would certify all 20 pairs vacuously


def test_full_scan_234():
    res = full_scan(234, 3)
    assert res.candidate_primes == (7,)
    assert [(h.params.M, h.params.L, h.report.newform) for h in res.hits] == [
        (13, 2, "234.2.a.b")
    ]
    # E^{crit2,crit13} = (M,L) = (26,1) matches no newform mod 7
    crit_reports = [r for r in res.reports if "M=26" in r.eisenstein]
    assert len(crit_reports) == 5 and not any(r.matched for r in crit_reports)
    for h in res.hits:
        assert cuspidal_order(h.params) % 7 == 0


def test_full_scan_725():
    res = full_scan(725, 5)
    got = {(h.params.phi.label(), h.params.M, h.report.newform, h.descriptor.residue_field())
           for h in res.hits}
    want = {
        ("5.2.1", 1, "725.2.a.b", "F_7"),
        ("5.2.1", 29, "725.2.a.b", "F_7"),
        ("5.4.1", 1, "725.2.a.l", "F_49"),
        ("5.4.1", 29, "725.2.a.l", "F_49"),
        ("5.4.3", 1, "725.2.a.l", "F_49"),
        ("5.4.3", 29, "725.2.a.l", "F_49"),
    }
    assert got == want
    # both refinements certify; the larger M is marked
    for h in res.hits:
        assert h.largest_M == (h.params.M == 29)
    for h in res.hits:
        assert cuspidal_order(h.params) % 7 == 0


def test_hecke_consistency_of_hits():
    """For a matched pair the reduced newform eigenvalue at r coprime to N is
    eps(r) + r eps^{-1}(r)."""
    res = full_scan(234, 3)
    h = res.hits[0]
    rec = next(r for r in bundled_newforms(234) if r.label == h.report.newform)
    l = h.report.prime
    eps = eisenstein_character(h.params.phi, l)
    F = FiniteField.create(l, h.report.residue_degree)
    zr, gr = h.report.embedding
    for r in primes_up_to(80):
        if 234 % r == 0:
            continue
        lhs = _reduce_newform(newform_coefficient(rec, r), gr, F)
        val = tl_eigenvalue(eps, r)
        rhs = _reduce_element(val.embed(eps.order) if val.field.m != eps.order else val, zr, F)
        assert lhs == rhs, r


def test_galois_conjugation_stability():
    """If (phi, f, q) matches then so does every Galois conjugate of phi."""
    res = full_scan(725, 5)
    by_order = {}
    for h in res.hits:
        by_order.setdefault((h.params.phi.order, h.params.M), set()).add(h.params.phi.label())
    assert by_order[(4, 1)] == {"5.4.1", "5.4.3"}
    assert by_order[(4, 29)] == {"5.4.1", "5.4.3"}


def test_u_eigenvalue_consistency_of_hits():
    """U_p is in m, and U_{p_i} - eps(p_i) or U_{p_i} - p_i eps^{-1}(p_i) is in
    m, read off from the reduced newform coefficients of each certified hit."""
    for N, p in ((725, 5), (234, 3)):
        res = full_scan(N, p)
        for h in res.hits:
            rec = next(r for r in bundled_newforms(N) if r.label == h.report.newform)
            l = h.report.prime
            F = FiniteField.create(l, h.report.residue_degree)
            zr, gr = h.report.embedding
            # U_p in m: a_p = 0 mod the prime
            assert _reduce_newform(newform_coefficient(rec, p), gr, F) == F.zero()
            eps = eisenstein_character(h.params.phi, l)
            for pi in (q for q in (2, 13, 29) if N % q == 0 and q != p):
                api = _reduce_newform(newform_coefficient(rec, pi), gr, F)
                eb = _reduce_element(eps.value(pi), zr, F)
                alt = F.mul(F.from_int(pi), F.inv(eb))
                assert api in (eb, alt), (N, h.report.newform, pi)


def test_paper_234_congruences_mod_2_and_3():
    """Fixture cross-validation: the worked example's residual 2- and 3-
    congruences at level 234 pin the newform labels a, c, d, e."""
    recs = {r.label: r for r in bundled_newforms(234)}
    phi = quadratic_character(3)
    B = sturm_bound(234)
    series = {
        (1, 26): "ord2,ord13", (13, 2): "ord2,crit13",
        (2, 13): "crit2,ord13", (26, 1): "crit2,crit13",
    }
    built = {}
    for (M, L) in series:
        P = EisensteinParams(phi, 234, M, L)
        built[(M, L)] = (P, build_E(P, B))
    # crit2 series = 234.2.a.e (mod 3)
    for key in ((26, 1), (2, 13)):
        P, E = built[key]
        assert scan(E, P, recs["234.2.a.e"], 3, B).matched, key
    # ord2 series = 234.2.a.a, 234.2.a.c, 234.2.a.d (mod 2)
    for key in ((1, 26), (13, 2)):
        P, E = built[key]
        for lbl in ("234.2.a.a", "234.2.a.c", "234.2.a.d"):
            assert scan(E, P, recs[lbl], 2, B).matched, (key, lbl)


def _scan_payload(res) -> str:
    """Canonical JSON of a FullScanResult (the `scan --json` fields), as the
    benchmark hashes it for its goldens."""
    return json.dumps({
        "level": res.level,
        "p": res.p,
        "bound": res.bound,
        "candidate_primes": list(res.candidate_primes),
        "hits": [
            {"eisenstein": h.report.eisenstein, "newform": h.report.newform,
             "prime": h.report.prime, "largest_M": h.largest_M,
             "descriptor": h.descriptor.to_json()}
            for h in res.hits
        ],
        "reports": [r.to_json() for r in res.reports],
        "skipped": list(res.skipped),
    }, sort_keys=True)


def test_full_scan_one_root_search_per_key(monkeypatch):
    """full_scan computes reduction_embeddings once per distinct (phi order,
    field_poly, l): 22 keys among the 72 scans at 725, with the golden result.
    Within them it factors each polynomial, a field polynomial or Phi_k, once
    per l (13 calls), reads its roots off that factorization once per F (23),
    and builds each F_{l^r} once (4 fields).  Only 5 factors, those of degree
    3 over F_7 and Phi_4's quadratic in F_{7^6}, take a splitting search."""
    from eiscong import ffield, scanner

    keys = []
    original = scanner.reduction_embeddings

    def counting(k, field_poly, q, **kwargs):
        keys.append((k, tuple(field_poly), q))
        return original(k, field_poly, q, **kwargs)

    calls = count_calls(monkeypatch, scanner, "roots_in_field", "factor_mod_q")
    fields = count_calls(monkeypatch, scanner.FiniteField, "create")
    searches = count_calls(monkeypatch, ffield, "_one_root")
    monkeypatch.setattr(scanner, "reduction_embeddings", counting)
    res = full_scan(725, 5)
    assert len(res.reports) == 72
    assert len(keys) == len(set(keys)) == 22
    assert calls == {"roots_in_field": 23, "factor_mod_q": 13}
    assert fields == {"create": 4}
    assert searches == {"_one_root": 5}
    golden = json.loads((Path(__file__).parents[1] / "bench" / "goldens.json").read_text())
    assert hashlib.sha256(_scan_payload(res).encode()).hexdigest() == golden["scan"]["725"]


@pytest.mark.parametrize("N, p, builds, searches", [(121, 11, 5, 0), (234, 3, 4, 0),
                                                    (725, 5, 6, 5)])
def test_full_scan_builds_and_searches_only_what_it_scans(monkeypatch, N, p, builds, searches):
    """full_scan builds a series' E at its first scanned l: at 121 the four
    order-5 series, whose one l = 5 is skipped as rational, are not built.
    Roots of linear factors and of quadratics in F_{l^2} are read directly,
    so only 725 runs splitting searches.  The result is the golden one."""
    from eiscong import ffield, scanner

    built = count_calls(monkeypatch, scanner, "build_E")
    searched = count_calls(monkeypatch, ffield, "_one_root")
    res = full_scan(N, p)
    assert (built, searched) == ({"build_E": builds}, {"_one_root": searches})
    assert hashlib.sha256(_scan_payload(res).encode()).hexdigest() == _golden_scan_hash(N)


def test_a_scan_pass_builds_few_elements(monkeypatch):
    """full_scan at 121, 234 and 725 and build_E over their eigenbases read
    and store (num, den) pairs: they build at most 50 elements of Q(zeta_m),
    20 once the fields exist, where one element per coefficient made
    thousands.
    Every element is built by `_element`, counted in each module that binds
    it."""
    import sys

    counts = [count_calls(monkeypatch, module, "_element") for name, module in
              list(sys.modules.items()) if name.startswith("eiscong") and "_element" in vars(module)]
    for N, p in ((121, 11), (234, 3), (725, 5)):
        full_scan(N, p)
        for P in eisenstein_basis(N, p):
            build_E(P, sturm_bound(N))
    assert 0 < sum(c["_element"] for c in counts) <= 50


@pytest.mark.parametrize("N, p", [(9, 3), (18, 3), (25, 5)])
def test_levels_without_newforms_scan_none(monkeypatch, tmp_path, N, p):
    """S_2^new(Gamma0(N)) = 0 at the p-good levels 9, 18 and 25: full_scan
    scans no newforms and reads neither the cache nor the network."""
    from eiscong import scanner

    def no_data(*args, **kwargs):
        raise AssertionError("newform data read at a level without newforms")

    monkeypatch.setattr(scanner, "newforms_for_level", no_data)
    res = full_scan(N, p, cache_dir=tmp_path)
    assert (res.level, res.p, res.bound) == (N, p, sturm_bound(N))
    assert (res.reports, res.hits, res.skipped) == ((), (), ())
    assert not any(tmp_path.iterdir())


def test_no_records_at_a_level_with_newforms():
    """An empty record list where newforms exist (dimension 4 at 121) is a
    data error that names the dimension."""
    with pytest.raises(NewformDataError, match=r"^no newform data for level 121 "
                       r"\(S_2\^new has dimension 4\); run `eiscong fetch --level 121` first$"):
        full_scan(121, 11, records=[])


@pytest.mark.parametrize("N, p, hit_count", [(169, 13, 5), (289, 17, 8), (361, 19, 13)])
def test_descriptor_relations_hold_at_the_certified_prime(monkeypatch, N, p, hit_count):
    """With newforms built by the fixture generator, the T_r relation that a
    hit prints for the class of r mod p vanishes at the certified newform's
    a_r, reduced at the certified root, for every prime r up to the bound
    with r not dividing N l.  l splits in Q(zeta_k') at each of these levels;
    a descriptor that picked its own prime above l broke this for 2, 6 and
    10 of the hits.  The four order-12 hits at 169 print one ideal."""
    bound = sturm_bound(N)
    records = parse_newforms(fixture_script(monkeypatch).build_level(N, bound))
    by_label = {rec.label: rec for rec in records}
    res = full_scan(N, p, records=records)
    assert len(res.hits) == hit_count
    for hit in res.hits:
        rep, rec = hit.report, by_label[hit.report.newform]
        l = rep.prime
        F = FiniteField.create(l, rep.residue_degree)
        for r in primes_up_to(bound):
            if N * l % r == 0:
                continue
            num, den = rec.an[r - 1]
            x = reduce_coefficient(num, den, _power_table(rep.embedding[1], F, len(num)), l)
            group = next(g for g in hit.descriptor.tr_groups if r % p in g.classes)
            value = F.pow(x, group.degree)
            for i, row in enumerate(group.poly):
                c = sum(cj * r ** j for j, cj in enumerate(row))
                value = F.add(value, F.mul(F.from_int(c), F.pow(x, i)))
            assert not any(value), (rep.eisenstein, rep.newform, l, r)
    if N == 169:
        order_12 = [h.descriptor.render() for h in res.hits if h.params.phi.order == 12]
        assert len(order_12) == 4 and len(set(order_12)) == 1


def _golden_scan_hash(level):
    golden = json.loads((Path(__file__).parents[1] / "bench" / "goldens.json").read_text())
    return golden["scan"][str(level)]


@pytest.mark.parametrize("N,p", [(121, 11), (234, 3)])
def test_full_scan_golden(N, p):
    res = full_scan(N, p)
    assert hashlib.sha256(_scan_payload(res).encode()).hexdigest() == _golden_scan_hash(N)


def test_scan_matches_per_coefficient_oracle(monkeypatch):
    """Every scan of full_scan at 121, 234 and 725 gives the report of the
    former per-coefficient Horner reduction over every embedding pair in
    order."""
    from eiscong import scanner

    calls = []
    original = scanner.scan

    def checking(E, params, record, q, B=None, *, embeddings=None):
        rep = original(E, params, record, q, B, embeddings=embeddings)
        r, F, pairs = embeddings[(params.phi.order, record.field_poly, q)]
        assert rep == ffield_oracle.scan_pairs(E, params, record, q, B, r, F, pairs)
        calls.append(rep)
        return rep

    monkeypatch.setattr(scanner, "scan", checking)
    for N, p, scans, matched in ((121, 11, 20, 5), (234, 3, 20, 1), (725, 5, 72, 6)):
        calls.clear()
        full_scan(N, p)
        assert len(calls) == scans and sum(rep.matched for rep in calls) == matched


def _with_fifth_added(rec, n, label):
    """rec with 1/5 added to a_n, so that 5 divides its denominator."""
    an = integer_coefficient(c + Fraction(1, 5) for c in newform_coefficient(rec, n))
    return NewformRecord(label, rec.level, rec.weight, rec.field_poly,
                         rec.an[:n - 1] + (an,) + rec.an[n:])


def test_full_scan_skips_unusable_newform_prime():
    """A newform with 5 in a coefficient denominator cannot be reduced mod a
    prime above 5: full_scan records one skipped entry for the pair, with the
    text it has always had, and scans everything else as before."""
    recs = bundled_newforms(121)
    d = next(r for r in recs if r.label == "121.2.a.d")
    bad = _with_fifth_added(d, 2, "121.2.a.z")
    with pytest.raises(UnsupportedPrimeError):
        scan(build_E(EisensteinParams(quadratic_character(11), 121, 1, 1), 22),
             EisensteinParams(quadratic_character(11), 121, 1, 1), bad, 5)
    base = full_scan(121, 11)
    res = full_scan(121, 11, records=recs + [bad])
    extra = [s for s in res.skipped if s not in base.skipped]
    assert extra == ["121.2.a.z at l=5: denominator 5 not invertible mod 5 (reduction undefined)"]
    assert res.reports == base.reports
    assert hit_labels(res) == hit_labels(base)


def test_late_denominator_is_reached_only_by_a_comparison():
    """5 in the denominator of a_B, the last coefficient a scan checks: a
    newform whose every pair fails earlier gets the per-coefficient oracle's
    mismatch report, not a skip; one whose pairs match up to a_B is skipped."""
    recs = bundled_newforms(121)
    a, d = (next(r for r in recs if r.label == f"121.2.a.{x}") for x in "ad")
    late_a, late_d = _with_fifth_added(a, 22, "121.2.a.y"), _with_fifth_added(d, 22, "121.2.a.z")
    res = full_scan(121, 11, records=recs + [late_a, late_d])
    assert [s for s in res.skipped if "121.2.a.y" in s] == []
    assert [s for s in res.skipped if "121.2.a.z" in s] == [
        "121.2.a.z at l=5: denominator 5 not invertible mod 5 (reduction undefined)"]
    late_reports = [rep for rep in res.reports if rep.newform == "121.2.a.y"]
    assert len(late_reports) == 5 and not any(rep.matched for rep in late_reports)
    memo = {}
    for params in eisenstein_basis(121, 11):
        if eisenstein_character(params.phi, 5).is_trivial():
            continue
        E = build_E(params, 22)
        rep = scan(E, params, late_a, 5, 22, embeddings=memo)
        r, F, pairs = memo[(params.phi.order, late_a.field_poly, 5)]
        assert rep == ffield_oracle.scan_pairs(E, params, late_a, 5, 22, r, F, pairs)
        assert rep in late_reports
        with pytest.raises(UnsupportedPrimeError, match="^denominator 5 not invertible mod 5$"):
            scan(E, params, late_d, 5, 22, embeddings=memo)


def _brute_orbit_minima(F, pairs):
    """The pairs equal to the smallest pair of their orbit under x -> x^q."""
    def orbit(pair):
        out = [pair]
        while len(out) < F.r:
            out.append(tuple(F.pow(x, F.q) for x in out[-1]))
        return out
    return [pair for pair in pairs if pair == min(orbit(pair))]


def test_certified_embeddings_are_orbit_minima():
    """A pair matches exactly when its Frobenius images do, so the first
    matching pair in sorted order, the one a hit certifies, is the smallest
    of its orbit."""
    for N, p in ((121, 11), (234, 3), (725, 5)):
        res = full_scan(N, p)
        assert res.hits
        for h in res.hits:
            F = FiniteField.create(h.report.prime, h.report.residue_degree)
            assert _brute_orbit_minima(F, [h.report.embedding]) == [h.report.embedding]
