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
from .ffield import FiniteField, cyclotomic_residue
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


@record
class TrClassGroup:
    """T_r generators for the residue classes sharing one symbolic relation.

    poly_in_r: coefficients c[i][j] of X^i r^j (X stands for T_r), balanced
    integer lifts mod l."""

    classes: tuple[int, ...]
    degree: int
    poly: tuple[tuple[int, ...], ...]

    def render(self) -> str:
        xterm = "T_r" if self.degree == 1 else f"T_r^{self.degree}"
        body = _render_bivariate(self.poly, self.degree)
        return "{" + xterm + body + " : r = " + ", ".join(map(str, self.classes)) + "}"


def _render_bivariate(poly, degree) -> str:
    """Render sum_{i<degree} (poly-in-r)_i X^i appended after the X^degree term."""
    # perfect-square prettification: X^2 + (a + b r)^2
    if degree == 2 and len(poly) >= 1 and all(
        not any(poly[i]) for i in range(1, min(2, len(poly)))
    ):
        c = list(poly[0]) + [0] * (3 - len(poly[0]))
        c0, c1, c2 = c[0], c[1], c[2]
        if c2 > 0 and c0 > 0 and c1 * c1 == 4 * c0 * c2:
            b2 = _isqrt(c2)
            a2 = _isqrt(c0)
            if b2 is not None and a2 is not None:
                rt = "r" if b2 == 1 else f"{b2}*r"
                return f" + ({a2} {'+' if c1 > 0 else '-'} {rt})^2"
    parts = []
    for i in range(len(poly) - 1, -1, -1):
        if i >= degree:
            continue
        for t, s in _render_poly_in_r_power(poly[i], i):
            parts.append((t, s))
    out = ""
    for t, s in parts:
        out += (" + " if s > 0 else " - ") + t
    return out


def _render_poly_in_r_power(coeffs, xpow) -> list[tuple[str, int]]:
    xs = "" if xpow == 0 else ("*T_r" if xpow == 1 else f"*T_r^{xpow}")
    out = []
    for j, c in enumerate(coeffs):
        if c == 0:
            continue
        mag = abs(c)
        if j == 0:
            t = f"{mag}{xs}" if (mag != 1 or xpow == 0) else xs.lstrip("*")
        elif j == 1:
            rt = "r" if mag == 1 else f"{mag}*r"
            t = rt + xs
        else:
            rt = f"r^{j}" if mag == 1 else f"{mag}*r^{j}"
            t = rt + xs
        out.append((t, 1 if c > 0 else -1))
    return out


def _isqrt(n: int):
    r = isqrt(max(n, 0))
    return r if r * r == n else None


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
        if c == 0:
            u_gens.append(f"U_{s}")
        elif c > 0:
            u_gens.append(f"U_{s} - {c}")
        else:
            u_gens.append(f"U_{s} + {-c}")

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
        # symbolic product over the orbit: prod_j (X - eps_j - r eps_j^{-1})
        # bivariate poly over F: dict (i_X, j_r) -> element
        poly = {(0, 0): F.one()}
        for ej in orbit:
            term = {(1, 0): F.one(), (0, 0): F.neg(ej), (0, 1): F.neg(F.inv(ej))}
            new: dict = {}
            for (i1, j1), v1 in poly.items():
                for (i2, j2), v2 in term.items():
                    key = (i1 + i2, j1 + j2)
                    acc = new.get(key)
                    prodv = F.mul(v1, v2)
                    new[key] = F.add(acc, prodv) if acc else prodv
            poly = {k2: v for k2, v in new.items() if any(v)}
        rows = [[0] * (deg + 1) for _ in range(deg + 1)]
        for (i, j), v in poly.items():
            assert not any(v[1:]), "relation coefficients must be in F_l"
            rows[i][j] = _balanced(v[0], l)
        assert rows[deg][0] == 1 and all(c == 0 for c in rows[deg][1:])
        tr_groups.append(
            TrClassGroup(tuple(sorted(classes)), deg, tuple(tuple(r) for r in rows[:deg]))
        )
    tr_groups.sort(key=lambda g: (g.degree, g.classes))

    return IdealDescriptor(
        level=N,
        p=p,
        residual_char=l,
        character_label=eps.label(),
        divisor_M=M,
        residue_degree=d,
        u_generators=tuple(u_gens),
        tr_groups=tuple(tr_groups),
    )
