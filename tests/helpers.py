"""Shared property-check routines used by module tests and the acceptance
suite (single source of truth for the heavier sweeps)."""

import importlib.util
import inspect
import os
import sys
from fractions import Fraction
from math import gcd, lcm, prod
from operator import mul
from pathlib import Path

from eiscong import cusps, cyclotomic, polys
from eiscong.arith import DomainError, divisors, euler_phi, prime_divisors, primes_up_to
from eiscong.characters import enumerate_characters
from eiscong.cyclotomic import cyclotomic_polynomial
from eiscong.eisenstein import EisensteinParams
from eiscong.ideals import descriptor
from eiscong.scanner import UnsupportedPrimeError, reduction_embeddings


def tensor_gauss_product(chi):
    """tau(chi) tau(chi^{-1}) and tau(chi) conj(tau(chi)) computed in
    Q[x]/(Phi_f) (x) Q[y]/(Phi_k), avoiding the large compositum; equality
    there implies it in every embedding.  All entries are integers."""
    f, k = chi.modulus, chi.order
    phif = cyclotomic_polynomial(f)
    phik = cyclotomic_polynomial(k)
    taus = {}
    for kind in ("inv", "conj"):
        grid = {}
        for a in range(1, f):
            ea = chi.value_exponent(a)
            if ea is None:
                continue
            for b in range(1, f):
                eb = chi.value_exponent(b)
                if eb is None:
                    continue
                if kind == "inv":
                    key = ((a + b) % f, (ea - eb) % k)
                else:
                    key = ((a - b) % f, (ea - eb) % k)
                grid[key] = grid.get(key, 0) + 1
        ypolys = {}
        for (xa, ye), c in grid.items():
            ypolys.setdefault(ye, [0] * f)
            ypolys[ye][xa] += c
        reduced = {ye: polys.divmod_monic(v, phif)[1] for ye, v in ypolys.items()}
        dx = len(phif) - 1
        acc = [[0] * dx for _ in range(k)]
        for ye, v in reduced.items():
            for i, cv in enumerate(v):
                acc[ye][i] += cv
        out = []
        for i in range(dx):
            out.append(polys.divmod_monic([acc[ye][i] for ye in range(k)], phik)[1])
        taus[kind] = out
    return taus


def check_gauss_identity(chi):
    """Assert tau(chi)tau(chi^-1) = chi(-1) f and tau(chi) conj = f."""
    f, k = chi.modulus, chi.order
    taus = tensor_gauss_product(chi)
    dx, dk = euler_phi(f), euler_phi(k)
    em1 = chi.value_exponent(f - 1)
    ycol = [0] * k
    ycol[em1] = f
    ycol = polys.divmod_monic(ycol, cyclotomic_polynomial(k))[1]
    want_inv = [[Fraction(0)] * dk for _ in range(dx)]
    want_inv[0] = list(ycol)
    assert taus["inv"] == want_inv, f"tau-product identity fails for {chi.label()}"
    want_conj = [[Fraction(0)] * dk for _ in range(dx)]
    want_conj[0][0] = Fraction(f)
    assert taus["conj"] == want_conj, f"|tau|^2 identity fails for {chi.label()}"


def descriptor_at(params, l):
    """`descriptor` at the prime above l where zeta_k goes to the smallest
    root of Phi_k (k the order of phi) in its residue field F_{l^d}."""
    _, F, pairs = reduction_embeddings(params.phi.order, (0, 1), l)
    return descriptor(params, F, pairs[0][0])


def character_with_value(f, n, order, exponent=1):
    """The unique character mod f of the given order with chi(n) = zeta_order^exponent."""
    hits = [
        chi
        for chi in enumerate_characters(f)
        if chi.order == order and chi.value_exponent(n) == exponent % order
    ]
    if len(hits) != 1:
        raise DomainError(f"{len(hits)} characters mod {f} of order {order} with that value")
    return hits[0]


def random_pgood_params(rng, count, nprime_max=30, primes=(3, 5)):
    """Random valid EisensteinParams at p-good levels, p in `primes`."""
    out = []
    while len(out) < count:
        p = rng.choice(primes)
        eligible = [q for q in primes_up_to(nprime_max) if q != p and q % p in (1, p - 1)]
        Nprime = 1
        for q in eligible:
            if rng.random() < 0.4 and Nprime * q <= nprime_max:
                Nprime *= q
        N = p * p * Nprime
        chars = [c for c in enumerate_characters(p) if not c.is_trivial()]
        phi = rng.choice(chars)
        M = rng.choice(divisors(Nprime))
        out.append(EisensteinParams(phi, N, M, Nprime // M))
    return out


def random_valid_params(rng, count):
    """Random valid (phi, N, M, L) across conductors 3..12 (not only p-good)."""
    out = []
    while len(out) < count:
        f = rng.choice((3, 4, 5, 7, 8, 9, 11, 12))
        chars = [c for c in enumerate_characters(f) if not c.is_trivial() and c.is_primitive()]
        if not chars:
            continue
        phi = rng.choice(chars)
        pool = [q for q in (2, 3, 5, 7, 11, 13) if f % q]
        rng.shuffle(pool)
        Mpart = prod(pool[: rng.randrange(0, 2)]) if pool else 1
        Lpart = prod([q for q in pool[2:4] if gcd(q, f * Mpart) == 1][: rng.randrange(0, 3)])
        extra = prod(pp ** rng.randrange(0, 2) for pp in prime_divisors(f))
        M = Mpart * extra
        N = f * f * M * Lpart
        if rng.random() < 0.5:
            t = next((q for q in (17, 19) if gcd(q, N) == 1), 17)
            N *= t
        try:
            out.append(EisensteinParams(phi, N, M, Lpart))
        except Exception:
            continue
    return out


def integer_coefficient(vec):
    """Fraction power-basis coordinates -> (num, den), a `NewformRecord.an`
    entry: integer numerators over the lcm of the reduced denominators."""
    vec = [Fraction(c) for c in vec]
    den = lcm(*(c.denominator for c in vec))
    return tuple(c.numerator * (den // c.denominator) for c in vec), den


def newform_coefficient(rec, n: int):
    """The power-basis coordinates of a_n of a `NewformRecord` as Fractions,
    read off its (num, den) pair."""
    num, den = rec.an[n - 1]
    return tuple(Fraction(c, den) for c in num)


def reduce_coefficient(num, den, table, q: int):
    """sum num[i] root^i / den in F from root's power table (`scanner._power_table`);
    q | den is an error.  One coefficient at a time, as `scan` once reduced them."""
    if den % q == 0:
        raise UnsupportedPrimeError(f"denominator {den} not invertible mod {q}")
    inv = pow(den, -1, q)
    return tuple(sum(map(mul, num, col)) * inv % q for col in table)


def hit_labels(res):
    """The sorted (series label, newform label, l) triples of a FullScanResult's hits."""
    return sorted({(h.params.label(), h.report.newform, h.report.prime) for h in res.hits})


def scalar_multiple(f, g, B):
    """The scalar c with the q-expansion f = c * g up to q^B, or None; f and g
    are library or oracle expansions, read through `coefficient`."""
    assert B <= min(f.precision, g.precision), "comparison bound exceeds available precision"
    c = None
    for n in range(1, B + 1):
        fn, gn = f.coefficient(n), g.coefficient(n)
        if gn.is_zero():
            if not fn.is_zero():
                return None
            continue
        ratio = fn * inverse(gn)
        if c is None:
            c = ratio
        elif c != ratio:
            return None
    return c


def galois(a, j):
    """sigma_j(a), zeta -> zeta^j, for a library CycElement a and gcd(j, m) = 1,
    through the numerator map the library's norm uses."""
    assert gcd(j, a.field.m) == 1, f"sigma_{j} is not a Galois element for m={a.field.m}"
    return cyclotomic._element(a.field, a._galois_num(j), a.den)


def inverse(a):
    """1/a for a nonzero library CycElement a: the product of its conjugates
    other than a, over its norm.  The library itself never divides."""
    others = a.field.one()
    for j in a.field.galois_group()[1:]:
        others = others * galois(a, j)
    return others * (1 / a.norm_to_Q())


def count_calls(monkeypatch, owner, *names):
    """Count the calls of each owner.<name> for the rest of the test: owner is
    a module or a class, name a function, method or static method.  Returns
    the dict name -> count, which the calls update."""
    counts = dict.fromkeys(names, 0)
    for name in names:
        def counted(*args, _fn=getattr(owner, name), _name=name, **kwargs):
            counts[_name] += 1
            return _fn(*args, **kwargs)
        if isinstance(inspect.getattr_static(owner, name), staticmethod):
            counted = staticmethod(counted)
        monkeypatch.setattr(owner, name, counted)
    return counts


def fresh_env():
    """The environment of a fresh interpreter that imports this eiscong."""
    src = str(Path(cyclotomic.__file__).parents[1])
    return {**os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def fixture_script(monkeypatch):
    """The fixture generator, loaded as a module."""
    monkeypatch.setattr(sys, "path", list(sys.path))  # the script prepends src/

    root = Path(__file__).resolve().parents[1]
    spec = importlib.util.spec_from_file_location(
        "make_newform_fixtures", root / "scripts" / "make_newform_fixtures.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def pullback_pi_paren(D, l):
    """pi_(l)^* of a CuspDivisor for the forgetful covering X0(Al) -> X0(A),
    through the library's row pullback on one-entry rows."""
    return _pullback(D, l, False)


def pullback_pi_l(D, l):
    """pi_l^* of a CuspDivisor for the covering X0(Al) -> X0(A) induced by
    z -> lz, through the library's row pullback on one-entry rows."""
    return _pullback(D, l, True)


def _pullback(D, l, scaled):
    rows = cusps._pullback({c: [v] for c, v in D.support.items()}, D.level, l, scaled)
    return cusps.CuspDivisor(D.level * l, {c: row[0] for c, row in rows.items()})
