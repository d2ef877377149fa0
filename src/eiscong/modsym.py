"""Weight-2 newforms on Gamma0(N) from Manin symbols, in integer arithmetic.

The space is the plus quotient of the Manin symbols (c : d) on P^1(Z/N) by
the 2-term, star and 3-term relations (Stein, *Modular Forms: A
Computational Approach*, GSM 79, ch. 3 and 8; Cremona, *Algorithms for
Modular Elliptic Curves*, ch. 2).  The relations are eliminated over Z, so
every symbol is an integer vector over the free generators, all over one
denominator D, and T_n, from Merel's matrices of determinant n, is an
integer matrix over D.  The cuspidal subspace is the kernel of the boundary
map, eliminated by `lattices.echelon`, with an integer basis that is a
multiple of the identity on the free columns of that kernel, so a cuspidal
vector's coordinates are its entries there.

`newform_orbits` works on one scale, that of the integer matrices: with den
= D s (s the kernel basis's scale, both 1 at every level measured), the
generic combination T of six Hecke operators on the cuspidal subspace is
A / den for an integer matrix A, and theta' = den theta is an eigenvalue of
A.  It factors over Z (`ffield.factor_over_z`) chi = charpoly(A).  Its
factors of multiplicity 1 are the newform Galois orbits once the old part
has the dimension that the levels below predict; otherwise the weights
change.  For such a factor g of degree d, psi_0 = u q(A), q = chi / g, lies
in ker g(A^t) and is nonzero for all but special row vectors u, so one
Krylov sequence u, u A, ..., u A^n serves every orbit.  Then psi_0 o T_p =
sum_i c_i psi_0 o A^i, where a_p = sum_i c_i theta'^i.  With P_i = psi_0 o
A^i, the c_i solve sum_i c_i den P_{i+k}(x) = P_k(den T_p x), k < d, for one
cuspidal basis vector x with psi_0(x) != 0: the Hankel matrix [P_{i+k}(x)]
is invertible, since (a, b) -> psi_0(a(A) b(A) x) is a nonzero trace form on
the field Q[A]/(g); `lattices.solve` solves it exactly.  So a_p needs only
den T_p x, from the images of the few Manin symbols in x's support.  Full
matrices are built for the six primes of T alone, and each is restricted
once to the cuspidal subspace, where its stability is checked: A is their
weighted sum on genus x genus matrices, and psi_0 composed with each
restricted operator checks the symbols' a_p.  Only the output
leaves this scale: theta's minimal polynomial has coefficients g_i /
den^(d-i), and a_p's coordinates in powers of theta are c_i den^i.
"""

from __future__ import annotations

import random
from functools import lru_cache
from math import gcd, lcm

from . import polys
from .arith import crt, divisors, is_prime, primes_up_to, record, xgcd
# the dimensions live beside cusp_count, where the scan reads them without
# loading this module; they are also read from here
from .cusps import cusp_from_fraction, genus_gamma0, new_dimension, old_dimension
from .ffield import factor_over_z
from .lattices import echelon, solve


# ----------------------------------------------------------------- P^1(Z/N)


class P1:
    """Canonical representatives for P^1(Z/NZ) (Stein, Algorithm 8.29/8.32).

    (c : d) reduces to (g : d') with g = gcd(c, N), so the pairs with c a
    divisor of N and gcd(c, d) = 1 give every class.  `_scale[c]` holds g
    and a unit s with s c = g mod N, and `_units[g]` the units t = 1 mod N/g,
    over which d' is the least t s d mod N."""

    def __init__(self, N: int):
        self.N = N
        self._scale = [(N, 1)] + [self._unit_scale(c) for c in range(1, N)]
        self._units = {g: [t for t in range(1, N, N // g) if gcd(t, N) == 1]
                       for g in divisors(N)}
        self._list = sorted({self.reduce((c, d)) for c in divisors(N)
                             for d in range(N) if gcd(c, d) == 1})
        self._index = {r: i for i, r in enumerate(self._list)}

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def reduce(self, cd):
        N = self.N
        c, d = cd[0] % N, cd[1] % N
        g, s = self._scale[c]
        if gcd(g, d) != 1:
            raise ValueError("not a P1 point")
        if g == N:
            return (0, 1)
        d1 = (s * d) % N
        return (1, d1) if g == 1 else (g, min((t * d1) % N for t in self._units[g]))

    def _unit_scale(self, c):
        """(g, s): g = gcd(c, N), s a unit mod N with s c = g mod N."""
        N = self.N
        g, s, _ = xgcd(c, N)
        if g == 1:
            return g, s % N
        # s is a unit mod N/g: make it one mod N by CRT with 1 mod the part
        # of N prime to N/g (Stein, lift to (Z/N)^*)
        u, v = 1, N
        h = gcd(v, N // g)
        while h > 1:
            u, v = u * h, v // h
            h = gcd(v, h)
        return g, crt(s, u, 1, v)

    def index(self, cd):
        return self._index[self.reduce(cd)]


@lru_cache(maxsize=None)
def merel_set(n: int) -> tuple:
    """Merel's matrices (a, b, c, d) of determinant n: a > b >= 0, d > c >= 0."""
    out = []
    for a in range(1, n + 1):
        for d in range((n + a - 1) // a, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                out += [(a, b, 0, d) for b in range(a)] + [(a, 0, c, d) for c in range(1, d)]
            elif d > 1:
                out += [(a, b, bc // b, d) for b in range((bc - 1) // (d - 1) + 1, a)
                        if bc % b == 0]
    return tuple(out)


# ------------------------------------------------------- Manin-symbol space


def _add_into(acc: dict, vec: dict, scale: int = 1) -> None:
    """acc += scale * vec for sparse integer vectors, dropping zeros."""
    for k, v in vec.items():
        nv = acc.get(k, 0) + scale * v
        if nv:
            acc[k] = nv
        else:
            acc.pop(k, None)


def _over(vec: dict, den: int):
    """vec / den in lowest terms, den > 0."""
    g = gcd(den, *vec.values())
    return {k: v // g for k, v in vec.items()}, den // g


class PlusQuotient:
    """Weight-2 Manin symbols for Gamma0(N) modulo the 2-term, star and
    3-term relations: the +1 eigenspace of the star involution on modular
    symbols M_2(Gamma0(N); Q), on the basis of the free generators.
    `red[i]` is D times P^1 point i, a sparse vector over that basis."""

    def __init__(self, N: int):
        self.N = N
        self.p1 = P1(N)
        idx = self.p1.index
        two, three = [], []
        for i, (c, d) in enumerate(self.p1):
            two += [((i, 1), (idx((d, -c)), 1)),        # x + x sigma = 0
                    ((i, 1), (idx((-c, d)), -1))]       # x - x eta = 0 (star)
            three.append(((i, 1), (idx((d, -c - d)), 1), (idx((-c - d, c)), 1)))
        # sparse elimination over Z: x_k = expr / den for each pivot k, with
        # every expr over the columns that are not pivots
        pivots = {}
        for terms in two + three:
            r = {}
            for k, v in terms:
                _add_into(r, {k: v})
            for k in [k for k in r if k in pivots]:
                coef = r.pop(k)
                expr, den = pivots[k]
                r = {c: v * den for c, v in r.items()}
                _add_into(r, expr, coef)
            if not r:
                continue
            pc = min(r, key=lambda k: (abs(r[k]), k))
            a = r.pop(pc)
            expr, den = _over({k: -v if a > 0 else v for k, v in r.items()}, abs(a))
            for k, (pexpr, pden) in pivots.items():
                if pc in pexpr:
                    coef = pexpr.pop(pc)
                    new = {c: v * den for c, v in pexpr.items()}
                    _add_into(new, expr, coef)
                    pivots[k] = _over(new, pden * den)
            pivots[pc] = (expr, den)
        free = [k for k in range(len(self.p1)) if k not in pivots]
        pos = {k: j for j, k in enumerate(free)}
        self.dim = len(free)
        self.D = D = lcm(1, *(den for _, den in pivots.values()))
        self.red = [{pos[c]: v * (D // pivots[i][1]) for c, v in pivots[i][0].items()}
                    if i in pivots else {pos[i]: D} for i in range(len(self.p1))]
        self.free_symbols = [self.p1[k] for k in free]

    def boundary_matrix(self):
        """The boundary map into the cusp classes modulo the star involution,
        as integer rows.  (c : d) is the path g{0, oo} from b/d to a/c, for
        g = [[a, b], [c, d]] in SL2(Z)."""
        N = self.N
        classes = {}

        def cusp(u, v):
            key = min(cusp_from_fraction(N, u, v), cusp_from_fraction(N, -u, v))
            return classes.setdefault(key, len(classes))

        cols = []
        for c, d in self.free_symbols:
            c = c or N
            while gcd(c, d) != 1:  # lift (c, d) mod N to a coprime pair
                d += N
            _, b, a = xgcd(-c, d)  # a d - b c = 1
            cols.append((cusp(a, c), cusp(b, d)))
        mat = [[0] * self.dim for _ in classes]
        for j, (i1, i2) in enumerate(cols):
            mat[i1][j] += 1
            mat[i2][j] -= 1
        return mat

    def image(self, cd, n: int) -> dict:
        """D * T_n (c : d), a sparse integer vector, from Merel's matrices."""
        c, d = cd
        reduce, idx = self.p1.reduce, self.p1._index
        counts = {}
        for a, b, cc, dd in merel_set(n):
            try:
                i = idx[reduce((a * c + cc * d, b * c + dd * d))]
            except ValueError:  # not a point of P^1(Z/N)
                continue
            counts[i] = counts.get(i, 0) + 1
        acc = {}
        for i, m in counts.items():
            _add_into(acc, self.red[i], m)
        return acc

    def hecke_matrix(self, n: int):
        """D * T_n as an integer matrix (columns indexed by free generators)."""
        mat = [[0] * self.dim for _ in range(self.dim)]
        for j, cd in enumerate(self.free_symbols):
            for i, v in self.image(cd, n).items():
                mat[i][j] = v
        return mat


# ---------------------------------------------------- integer linear algebra


def _vec_mat(v, A):
    """The row vector v times the matrix A."""
    out = [0] * len(A[0])
    for x, row in zip(v, A):
        if x:
            out = [o + x * a for o, a in zip(out, row)]
    return out


def _charpoly_modp(A, p):
    """The characteristic polynomial of A mod the prime p, ascending: a
    Hessenberg form by similarity, then the recurrence on its leading minors."""
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for j in range(n - 2):
        piv = next((i for i in range(j + 1, n) if H[i][j]), None)
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for row in H:
                row[piv], row[j + 1] = row[j + 1], row[piv]
        inv = pow(H[j + 1][j], p - 2, p)
        top = H[j + 1]
        for i in range(j + 2, n):
            if H[i][j]:
                t = H[i][j] * inv % p
                H[i][j:] = [(x - t * y) % p for x, y in zip(H[i][j:], top[j:])]
                for row in H:
                    row[j + 1] = (row[j + 1] + t * row[i]) % p
    charpolys = [[1]]
    for m in range(1, n + 1):
        prev = charpolys[m - 1]
        a = H[m - 1][m - 1]
        pm = [(x - a * y) % p for x, y in zip([0] + prev, prev + [0])]
        prodsub = 1
        for i in range(m - 1, 0, -1):
            prodsub = prodsub * H[i][i - 1] % p
            t = H[i - 1][m - 1] * prodsub % p
            if t:
                pi = charpolys[i - 1]
                pm[:len(pi)] = [(x - t * y) % p for x, y in zip(pm, pi)]
        charpolys.append(pm)
    return charpolys[n]


def charpoly(A):
    """The characteristic polynomial of the integer matrix A: ascending
    integer coefficients, lifted by CRT one 61-bit prime at a time until the
    signed lift is stable for three primes."""
    p = (1 << 61) - 1
    M, lifted, current, stable = 1, [0] * (len(A) + 1), None, 0
    for _ in range(80):
        p += 2
        while not is_prime(p):
            p += 2
        poly = _charpoly_modp(A, p)
        lifted = [crt(r, M, x, p) for r, x in zip(lifted, poly)]
        M *= p
        signed = [r - M if r > M // 2 else r for r in lifted]
        stable = stable + 1 if signed == current else 0
        current = signed
        if stable == 3:
            return current
    raise ArithmeticError("charpoly did not stabilize")


# -------------------------------------------------------------- newforms


@record
class NewformOrbit:
    """A Galois orbit of newforms: theta_poly (ascending, monic, integer) is
    the minimal polynomial of the eigenvalue theta of the generic operator T,
    and ap[p] = (c_0, ..., c_{d-1}) gives a_p = sum_i c_i theta^i.  Both are
    on T's scale, converted from the integer matrix den T that
    `newform_orbits` computes with."""

    level: int
    theta_poly: tuple[int, ...]
    ap: dict


def newform_orbits(N: int, prime_bound: int) -> list[NewformOrbit]:
    """All weight-2 newform Galois orbits of level N, with a_p for the primes
    p <= prime_bound, sorted by degree and then by the descending
    coefficients of theta_poly."""
    sp = PlusQuotient(N)
    delta, dpiv = echelon(sp.boundary_matrix())
    cols = [c for c in range(sp.dim) if c not in dpiv]  # the kernel's free columns
    genus = len(cols)
    assert genus == genus_gamma0(N), f"cuspidal dim {genus} != genus {genus_gamma0(N)}"
    if not genus:
        return []
    # cuspidal basis vector j: s at cols[j], 0 at the other cols
    s = abs(delta[0][dpiv[0]]) if delta else 1
    basis = []
    for fc in cols:
        b = [0] * sp.dim
        b[fc] = s
        for row, pc in zip(delta, dpiv):
            b[pc] = -row[fc] * s // row[pc]
        basis.append(b)
    B = [list(r) for r in zip(*basis)]  # sp.dim x genus
    den = sp.D * s  # the integer matrix A of an operator T is den * T

    def restrict(p):
        """den T_p on the cuspidal basis: a genus x genus integer matrix."""
        HB = [_vec_mat(row, B) for row in sp.hecke_matrix(p)]
        A = [HB[i] for i in cols]
        assert [_vec_mat(row, A) for row in B] == [[x * s for x in r] for r in HB], \
            f"cuspidal subspace not stable under T_{p} / restriction wrong"
        return A

    plist = primes_up_to(prime_bound)
    good = [p for p in plist if N % p][:6]
    hecke = {p: restrict(p) for p in good}
    for attempt in range(6):
        weights = [(3 * attempt + 1) * (i * i + i + 1) % 23 + (i == 0) for i in range(len(good))]
        A = [[sum(w * hecke[p][i][j] for w, p in zip(weights, good)) for j in range(genus)]
             for i in range(genus)]
        chi = charpoly(A)
        factors = factor_over_z(chi)
        if sum((len(g) - 1) * m for g, m in factors if m > 1) == old_dimension(N):
            break
    else:
        raise ArithmeticError("could not separate new and old eigensystems")

    krylov = []  # u, u A, ..., u A^n for a pseudo-random u, one sequence per seed
    images = {}  # (generator k, p) -> D * T_p x_k, shared by the orbits
    orbits = []
    for g in (g for g, m in factors if m == 1):
        d = len(g) - 1
        q = polys.divmod_monic(chi, g)[0]
        for seed in range(8):
            if seed == len(krylov):
                rng = random.Random(seed)
                krylov.append([[rng.randrange(-5, 6) for _ in A]])
                for _ in A:
                    krylov[-1].append(_vec_mat(krylov[-1][-1], A))
            psi = [0] * genus  # u q(A)
            for c, row in zip(q, krylov[seed]):
                if c:
                    psi = [x + c * y for x, y in zip(psi, row)]
            if any(psi):
                break
        else:
            raise ArithmeticError("no dual eigenvector found")
        content = gcd(*psi)
        P = [[x // content for x in psi]]  # P[i] = psi_0 o A^i
        for _ in range(2 * d - 1):
            P.append(_vec_mat(P[-1], A))
        assert not any(sum(c * P[i][j] for i, c in enumerate(g))
                       for j in range(genus)), "dual vector fails annihilation by g(A)"
        # x = b_j with psi_0(x) != 0, and den times the coordinates of T_p x
        j = next(j for j in range(genus) if P[0][j])
        rhs = []
        for p in plist:
            acc = {}
            for k, bk in enumerate(basis[j]):
                if bk:
                    if (k, p) not in images:
                        images[k, p] = sp.image(sp.free_symbols[k], p)
                    _add_into(acc, images[k, p], bk)
            rhs.append([acc.get(c, 0) for c in cols])
        # psi_0 o T_p = sum_i c_i P[i], at x and at A^k x: the c_i solve
        # sum_i c_i den P[i+k](x) = P[k](den T_p x) for k < d
        coef = solve([[den * P[i + k][j] for i in range(d)] for k in range(d)],
                     [[sum(a * b for a, b in zip(P[k], y)) for y in rhs] for k in range(d)])
        for p in good:
            # den * psi_0 o T_p from the restricted matrix is den * sum_i c_i P[i];
            # both sides times the c_i's common denominator e stay in Z
            c = [row[plist.index(p)] for row in coef]
            e = lcm(*(x.denominator for x in c))
            assert [e * x for x in _vec_mat(P[0], hecke[p])] == [
                den * x for x in _vec_mat([int(x * e) for x in c], P[:d])
            ], f"T_{p} from the symbols disagrees with the restricted matrix"
        # theta' = den theta has minimal polynomial g: to theta's scale
        theta, rem = zip(*(divmod(c, den ** (d - i)) for i, c in enumerate(g)))
        assert not any(rem), "theta's minimal polynomial is not integral"
        ap = {p: tuple(coef[i][t] * den ** i for i in range(d)) for t, p in enumerate(plist)}
        orbits.append(NewformOrbit(N, theta, ap))
    return sorted(orbits, key=lambda o: (len(o.theta_poly), o.theta_poly[::-1]))
