"""Cuspidal subgroup orders, candidate residual characteristics, and
Eisenstein-maximal-ideal descriptors.

The order of the cuspidal subgroup attached to E_{phi,M,L} is the index of
Num(beta-tilde) in Z[zeta_lcm(f,k)]: |N(beta-tilde)| when beta-tilde is
integral, and otherwise |N(d*beta-tilde)| over the index of (d*beta-tilde) + (d),
d its denominator (see `lattices`).  Candidate residual characteristics of
non-rational Eisenstein ideals at a p-good level N lie in
{2,3,p} u S1(N) u S2(N).  A descriptor spells out the ideal
(l, U_p, U_s - s eps^{-1}(s), U_q - eps(q), T_r-relations grouped by the value
eps(r) + r eps^{-1}(r) in F_l[eps]), in the display format of the worked
examples.  It is read at the prime above l that the scan certified, given as
the field F and the root of Phi_k in F to which zeta_k reduces; where l
splits in Q(zeta_k'), another prime would give another ideal.
"""

from __future__ import annotations

from math import gcd, isqrt

from .arith import DomainError, is_p_good, prime_divisors, record, valuation
from .characters import DirichletCharacter, bernoulli_B2, enumerate_characters
from .cusps import beta_tilde
from .cyclotomic import cyclotomic_polynomial
from .eisenstein import EisensteinParams
from .ffield import FiniteField, _pmul, cyclotomic_residue
from .lattices import numerator_index


def cuspidal_order(params: EisensteinParams) -> int:
    """|C_{Gamma0(N)}(E_{phi,M,L})| = [Z[zeta_f,phi] : Num(beta-tilde)]."""
    return numerator_index(beta_tilde(params))


def s1_set(N: int) -> frozenset[int]:
    """Primes r with r | q^2 - 1 for some prime q | N."""
    out = set()
    for q in prime_divisors(N):
        out.update(prime_divisors(q * q - 1))
    return frozenset(out)


def s2_set(N: int, p: int) -> frozenset[int]:
    """Primes s | N_{Q(phi)/Q}(6 p B2(xi^{-1})), over nontrivial phi mod p.

    The norm is taken once per Galois orbit of phi: conjugation acts on
    B2(xi^{-1}) as on phi and fixes its norm, and two characters mod p are
    conjugate exactly when their kernels, the residues with exponent 0, are
    equal."""
    if valuation(N, p) < 2:
        raise DomainError(f"s2_set needs p^2 | N (p={p}, N={N})")
    out = set()
    kernels = set()
    for phi in enumerate_characters(p):
        kernel = frozenset(a for a, e in enumerate(phi.exponents) if e == 0)
        if phi.is_trivial() or kernel in kernels:
            continue
        kernels.add(kernel)
        xi = phi.power(2).primitive_part()
        k = phi.order
        elt = bernoulli_B2(xi.inverse()).embed(k) * (6 * p)
        nrm = elt.norm_to_Q()
        assert nrm.denominator == 1 and nrm != 0
        out.update(prime_divisors(abs(int(nrm))))
    return frozenset(out)


@record
class CandidateReport:
    level: int
    p: int
    s1: frozenset[int]
    s2: frozenset[int]

    @property
    def union(self) -> frozenset[int]:
        return frozenset({2, 3, self.p}) | self.s1 | self.s2

    def provenance(self) -> dict[int, list[str]]:
        out: dict[int, list[str]] = {}
        for ell in sorted(self.union):
            tags = []
            if ell in (2, 3, self.p):
                tags.append("2,3,p")
            if ell in self.s1:
                tags.append("S1")
            if ell in self.s2:
                tags.append("S2")
            out[ell] = tags
        return out


def candidate_characteristics(N: int, p: int) -> CandidateReport:
    """{2,3,p} u S1(N) u S2(N) with per-prime provenance; N must be p-good."""
    if not is_p_good(N, p):
        raise DomainError(f"N={N} is not {p}-good")
    return CandidateReport(N, p, s1_set(N), s2_set(N, p))


# ------------------------------------------------------------- descriptors


def eisenstein_character(phi: DirichletCharacter, l: int) -> DirichletCharacter:
    """The canonical lift eps of the reduction of phi mod a prime above l:
    the power of phi of order = prime-to-l part of order(phi) with the same
    reduction (zeta_{l^v}-part maps to 1)."""
    k, _ = cyclotomic_residue(phi.order, l)
    lv = phi.order // k
    if lv == 1:
        return phi
    if k == 1:
        return DirichletCharacter.trivial()
    t = pow(lv, -1, k)
    return phi.power(lv * t)


def _balanced(x: int, l: int) -> int:
    x %= l
    return x - l if x > l // 2 else x


def _term(c: int, j: int, i: int) -> str:
    """The signed term c r^j T_r^i, as in " + 3*r*T_r^2" or " - r": a factor
    1 is left out, and |c| = 1 is shown only as a term of its own."""
    factors = [str(abs(c))] if abs(c) != 1 or not (i or j) else []
    factors += ["r" if j == 1 else f"r^{j}"] if j else []
    factors += ["T_r" if i == 1 else f"T_r^{i}"] if i else []
    return (" + " if c > 0 else " - ") + "*".join(factors)


@record
class TrClassGroup:
    """T_r generators for the residue classes sharing one symbolic relation.

    poly: coefficients poly[i][j] of T_r^i r^j for i < degree, balanced
    integer lifts mod l; the relation is monic in T_r of that degree."""

    classes: tuple[int, ...]
    degree: int
    poly: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        """{T_r^degree + ... : r = classes}, expanded by descending powers of
        T_r, except T_r^2 + a^2 +- 2ab r + b^2 r^2 (a, b > 0), which reads
        T_r^2 + (a +- b*r)^2."""
        rows = self.poly
        tail = "".join(_term(c, j, i) for i in reversed(range(self.degree))
                       for j, c in enumerate(rows[i]) if c)
        if self.degree == 2 and not any(rows[1]):
            c0, c1, c2 = rows[0]
            a, b = isqrt(max(c0, 0)), isqrt(max(c2, 0))
            if a and b and (a * a, b * b, c1 * c1) == (c0, c2, 4 * c0 * c2):
                tail = f" + ({a}{_term(b if c1 > 0 else -b, 1, 0)})^2"
        head = "T_r" if self.degree == 1 else f"T_r^{self.degree}"
        return "{" + head + tail + " : r = " + ", ".join(map(str, self.classes)) + "}"


@record
class IdealDescriptor:
    """Explicit generator list of the Eisenstein maximal ideal (l, I_{eps,M}(N))."""

    level: int
    p: int
    residual_char: int
    character_label: str
    divisor_M: int
    residue_degree: int
    u_generators: tuple[str, ...]
    tr_groups: tuple[TrClassGroup, ...]

    def residue_field(self) -> str:
        return f"F_{self.residual_char ** self.residue_degree}"

    def render(self) -> str:
        parts = [str(self.residual_char)]
        parts.extend(self.u_generators)
        parts.extend(
            g.render() + f" (mod {self.p})" for g in self.tr_groups
        )
        return "<" + ", ".join(parts) + ">"

    def to_json(self) -> dict:
        return {
            "level": self.level,
            "p": self.p,
            "residual_char": self.residual_char,
            "character": self.character_label,
            "M": self.divisor_M,
            "residue_field": self.residue_field(),
            "u_generators": list(self.u_generators),
            "tr_groups": [
                {
                    "classes": list(g.classes),
                    "degree": g.degree,
                    "poly": [list(r) for r in g.poly],
                    "display": g.render() + f" (mod {self.p})",
                }
                for g in self.tr_groups
            ],
            "display": self.render(),
        }


def descriptor(params: EisensteinParams, F: FiniteField, zeta_root) -> IdealDescriptor:
    """The ideal descriptor at the prime above l = F.q (coprime to 6p) at
    which zeta_k reduces to `zeta_root`, a root in F of Phi_k for k the order
    of phi: the prime that `scan` certified.  eps-bar(r) is zeta_root^e for
    phi(r) = zeta_k^e, since eps is the power of phi with the same reduction.
    """
    p = params.f
    N = params.N
    l = F.q
    if gcd(l, 6 * p) != 1:
        raise DomainError(f"descriptor requires l coprime to 6p (l={l}, p={p})")
    if not is_p_good(N, p):
        raise DomainError(f"descriptor requires a p-good level (N={N}, p={p})")
    eps = eisenstein_character(params.phi, l)
    if eps.is_trivial():
        raise DomainError("eps is trivial: rational Eisenstein ideals are out of scope")
    phi = params.phi
    value = F.zero()
    for c in reversed(cyclotomic_polynomial(phi.order)):
        value = F.add(F.mul(value, zeta_root), F.from_int(c))
    if any(value):
        raise DomainError(f"{zeta_root} is not a root of Phi_{phi.order} in F_{F.size}")
    _, d = cyclotomic_residue(eps.order, l)

    def eps_bar(r):
        e = phi.value_exponent(r)
        return None if e is None else F.pow(zeta_root, e)

    Nprime = N // (p * p)
    M = gcd(params.M, Nprime)
    u_gens = [f"U_{p}"]
    for s in sorted(prime_divisors(Nprime)):
        eb = eps_bar(s)
        assert eb is not None and not any(eb[1:]), "eps(s) must be ±1 at s | N'"
        e0 = eb[0]
        if M % s == 0:
            val = s * pow(e0, -1, l) % l  # s * eps^{-1}(s)
        else:
            val = e0 % l
        c = _balanced(val, l)
        u_gens.append(f"U_{s}" + (_term(-c, 0, 0) if c else ""))

    # group unit classes r mod p by the Frobenius orbit of eps-bar(r)
    groups: dict[tuple, list[int]] = {}
    for r in range(1, p):
        eb = eps_bar(r)
        orbit = set()
        x = eb
        while x not in orbit:
            orbit.add(x)
            x = F.frob(x)
        groups.setdefault(tuple(sorted(orbit)), []).append(r)

    tr_groups = []
    for orbit, classes in groups.items():
        deg = len(orbit)
        # prod_j (X - eps_j - r eps_j^{-1}) over the orbit, a polynomial over F
        # in X and r of total degree deg: X^i r^j is the entry i + j (deg + 1)
        poly = [F.one()]
        for ej in orbit:
            term = [F.neg(ej), F.one()] + [F.zero()] * (deg - 1) + [F.neg(F.inv(ej))]
            poly = _pmul(poly, term, F)
        rows = [[0] * (deg + 1) for _ in range(deg + 1)]
        for k, v in enumerate(poly):
            assert not any(v[1:]), "relation coefficients must be in F_l"
            j, i = divmod(k, deg + 1)
            rows[i][j] = _balanced(v[0], l)
        assert rows[deg][0] == 1 and all(c == 0 for c in rows[deg][1:])
        tr_groups.append(
            TrClassGroup(tuple(sorted(classes)), deg, tuple(tuple(r) for r in rows[:deg]))
        )
    tr_groups.sort(key=lambda g: (g.degree, g.classes))

    return IdealDescriptor(N, p, l, eps.label(), M, d, tuple(u_gens), tuple(tr_groups))
