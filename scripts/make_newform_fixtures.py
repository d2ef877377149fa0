#!/usr/bin/env python3
"""Dev tooling: generate the bundled newform q-expansion fixtures.

Computes weight-2 newform Hecke eigensystems for Gamma0(N) at the levels the
test suite needs (121, 234, 725) with exact rational arithmetic: Manin symbols
on P^1(Z/N), plus-quotient, boundary map, Merel's matrices for T_n, and
eigensystem extraction over the coefficient fields.  Results are validated
against the coefficient data displayed in the literature for these levels,
against structural identities (cuspidal dimension = genus, oldform
multiplicities, U_p behaviour, Hasse traces), and then frozen as JSON under
src/eiscong/data/.

This script is not part of the library; the library only ingests the JSON.
It does reuse the library's exact helpers: integer arithmetic from
`eiscong.arith`, ring-generic polynomial products and monic division from
`eiscong.polys` (on Fraction coefficients here), the canonical row HNF from
`eiscong.lattices.hnf`, and cusp counting and Gamma0(N)-equivalence from
`eiscong.cusps`.  Dense linear algebra over Q is one reduced-row-echelon
routine, `rref`, with thin callers.
Run:  python scripts/make_newform_fixtures.py [--selfcheck]
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

from sympy import Poly, symbols

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
DATA_DIR = HERE.parent / "src" / "eiscong" / "data"

from eiscong import polys  # noqa: E402
from eiscong.arith import (divisors, is_prime, prime_divisors,  # noqa: E402
                           primes_up_to, xgcd)
from eiscong.cusps import cusp_count, gamma0_equivalent  # noqa: E402
from eiscong.lattices import hnf  # noqa: E402

X = symbols("x")


def genus_gamma0(N):
    ps = prime_divisors(N)
    mu = N
    for p in ps:
        mu = mu // p * (p + 1)
    nu_inf = cusp_count(N)
    if N % 4 == 0:
        nu2 = 0
    else:
        nu2 = 1
        for p in ps:
            if p == 2:
                continue
            nu2 *= 1 + (1 if p % 4 == 1 else -1)
    if N % 9 == 0:
        nu3 = 0
    else:
        nu3 = 1
        for p in ps:
            if p == 3:
                continue
            nu3 *= 1 + (1 if p % 3 == 1 else -1)
    g = Fraction(1) + Fraction(mu, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(nu_inf, 2)
    assert g.denominator == 1
    return int(g)


# ----------------------------------------------------------------- P^1(Z/N)


class P1:
    """Canonical representatives for P^1(Z/NZ) (Stein, Algorithm 8.29/8.32)."""

    def __init__(self, N):
        self.N = N
        seen = {}
        for c in range(N):
            for d in range(N):
                if gcd(gcd(c, d), N) != 1:
                    continue
                r = self.reduce((c, d))
                seen[r] = True
        self._list = sorted(seen)
        self._index = {r: i for i, r in enumerate(self._list)}

    def __len__(self):
        return len(self._list)

    def __getitem__(self, i):
        return self._list[i]

    def reduce(self, cd):
        N = self.N
        c, d = cd[0] % N, cd[1] % N
        if gcd(gcd(c, d), N) != 1:
            raise ValueError("not a P1 point")
        if c == 0:
            return (0, 1)
        g, s, _ = xgcd(c, N)
        # s*c = g mod N; s is a unit mod N/g, lift to a unit mod N
        s = self._lift_unit(s % N, N // g)
        c1 = g
        d1 = (s * d) % N
        if c1 == 1:
            return (1, d1)
        # canonical minimum over units t with t = 1 mod N/g
        best = d1
        for t in range(1 + N // c1, N, N // c1):
            if gcd(t, N) != 1:
                continue
            v = (t * d1) % N
            if v < best:
                best = v
        return (c1, best)

    def _lift_unit(self, a, d):
        """Lift a unit a mod d to a unit mod N (Stein, lift to (Z/N)^*)."""
        N = self.N
        if d == N:
            return a % N
        u, v = 1, N
        g = gcd(v, d)
        while g > 1:
            u *= g
            v //= g
            g = gcd(v, g)
        # N = u*v, gcd(u,v) = 1, primes(u) = primes dividing d
        if u == 1:
            return 1 % N
        x = (a * v * pow(v, -1, u) + u * pow(u, -1, v)) % N
        return x

    def index(self, cd):
        return self._index[self.reduce(cd)]


# ------------------------------------------------------- Manin-symbol space


def merel_set(n):
    """Merel's matrices of determinant n: a > b >= 0, d > c >= 0."""
    out = []
    for a in range(1, n + 1):
        d0 = (n + a - 1) // a
        for d in range(d0, n + 2 - a):
            bc = a * d - n
            if bc == 0:
                for b in range(a):
                    out.append((a, b, 0, d))
                for c in range(1, d):
                    out.append((a, 0, c, d))
            else:
                if d == 1:
                    continue
                for b in range((bc - 1) // (d - 1) + 1, a):
                    if bc % b == 0:
                        out.append((a, b, bc // b, d))
    return out


class PlusQuotient:
    """Weight-2 Manin symbols for Gamma0(N), modulo 2-term, 3-term and star.

    The quotient is isomorphic to the +1 eigenspace of the star involution on
    modular symbols M_2(Gamma0(N); Q).
    """

    def __init__(self, N, verbose=False):
        self.N = N
        self.p1 = P1(N)
        n = len(self.p1)
        idx = self.p1.index

        # sign-union-find over 2-term and star relations:
        #   x + x*sigma = 0  with sigma: (c,d) -> (d,-c)
        #   x - x*eta   = 0  with eta:   (c,d) -> (-c,d)
        parent = list(range(n))
        sign = [1] * n  # x_i = sign[i] * x_root(i)
        dead = [False] * n

        def find2(i):
            # returns (root, s) with x_i = s * x_root; compresses the path
            path = []
            while parent[i] != i:
                path.append(i)
                i = parent[i]
            s = 1
            for j in reversed(path):
                s *= sign[j]
                sign[j] = s
                parent[j] = i
            return i, s

        def union(i, j, s):
            # impose x_i = s * x_j
            ri, si = find2(i)
            rj, sj = find2(j)
            # si * x_ri = x_i = s x_j = s sj x_rj
            if ri == rj:
                if si != s * sj:
                    dead[ri] = True
                return
            parent[ri] = rj
            sign[ri] = s * sj * si  # x_ri = si^{-1} s sj x_rj ; si in {1,-1}
            if dead[ri]:
                dead[rj] = True

        for i in range(n):
            c, d = self.p1[i]
            union(i, idx((d, -c)), -1)      # x = -x*sigma
            union(i, idx((-c, d)), 1)       # x = x*eta

        # propagate "dead" (x = -x) to full orbits
        roots = {}
        for i in range(n):
            r, s = find2(i)
            roots.setdefault(r, []).append((i, s))
        for r in list(roots):
            if dead[r]:
                for i, _ in roots[r]:
                    dead[i] = True

        rep_ids = sorted(r for r in roots if not dead[r])
        self.rep_pos = {r: k for k, r in enumerate(rep_ids)}
        self.rep_ids = rep_ids

        def to_rep(i):
            r, s = find2(i)
            if dead[r]:
                return None
            return self.rep_pos[r], s

        # 3-term relations over representatives: x + x*tau + x*tau^2 = 0
        #   tau: (c,d) -> (d, -c-d);  tau^2: (c,d) -> (-c-d, c)
        rows = []
        seen_rows = set()
        for i in range(n):
            c, d = self.p1[i]
            row = {}
            for j in (i, idx((d, -c - d)), idx((-c - d, c))):
                t = to_rep(j)
                if t is None:
                    continue
                k, s = t
                row[k] = row.get(k, 0) + s
            row = {k: v for k, v in row.items() if v}
            if row:
                key = tuple(sorted(row.items()))
                nkey = tuple(sorted((k, -v) for k, v in row.items()))
                if key not in seen_rows and nkey not in seen_rows:
                    seen_rows.add(key)
                    rows.append(row)

        # sparse RREF of the 3-term relations
        pivots = {}  # rep -> expr dict {rep: Fraction}; x_piv = sum expr
        for row in rows:
            r = {k: Fraction(v) for k, v in row.items()}
            while True:
                hit = [c0 for c0 in r if c0 in pivots]
                if not hit:
                    break
                for c0 in hit:
                    coef = r.pop(c0)
                    if coef:
                        for cc, v in pivots[c0].items():
                            nv = r.get(cc, Fraction(0)) + coef * v
                            if nv:
                                r[cc] = nv
                            else:
                                r.pop(cc, None)
            r = {k: v for k, v in r.items() if v}
            if not r:
                continue
            unit = [c0 for c0 in r if abs(r[c0]) == 1]
            pc = min(unit) if unit else min(r, key=lambda c0: r[c0].denominator * abs(r[c0].numerator))
            coef = r.pop(pc)
            expr = {cc: -v / coef for cc, v in r.items()}
            for c0 in list(pivots):
                prow = pivots[c0]
                if pc in prow:
                    k2 = prow.pop(pc)
                    for cc, v in expr.items():
                        nv = prow.get(cc, Fraction(0)) + k2 * v
                        if nv:
                            prow[cc] = nv
                        else:
                            prow.pop(cc, None)
            pivots[pc] = expr

        free = [k for k in range(len(rep_ids)) if k not in pivots]
        self.free = free
        free_pos = {k: j for j, k in enumerate(free)}
        self.dim = len(free)

        # full reduction map: P1 index -> sparse vector over free generators
        red = []
        for i in range(n):
            t = to_rep(i)
            if t is None:
                red.append({})
                continue
            k, s = t
            if k in pivots:
                red.append({free_pos[kk]: s * v for kk, v in pivots[k].items()})
            else:
                red.append({free_pos[k]: Fraction(s)})
        self.red = red
        # symbols of the free generators
        self.free_symbols = [self.p1[rep_ids[k]] for k in free]

    # -- boundary ---------------------------------------------------------

    def _cusp_equiv(self, p, q):
        """Gamma0(N)-equivalence up to the star involution (u,v) -> (-u,v)."""
        N = self.N
        return gamma0_equivalent(N, p, q) or gamma0_equivalent(N, (-p[0], p[1]), q)

    def boundary_matrix(self):
        """Boundary map into cusp classes modulo the star action."""
        classes = []

        def cusp_index(u, v):
            for i, (u2, v2) in enumerate(classes):
                if self._cusp_equiv((u, v), (u2, v2)):
                    return i
            classes.append((u, v))
            return len(classes) - 1

        cols = []
        for (c, d) in self.free_symbols:
            # lift (c,d) to g = [[a,b],[c',d']] in SL2(Z) with (c',d') = (c,d) mod N
            a, b, cc, dd = self._sl2_lift(c, d)
            col = {}
            i1 = cusp_index(a, cc)
            i2 = cusp_index(b, dd)
            col[i1] = col.get(i1, 0) + 1
            col[i2] = col.get(i2, 0) - 1
            cols.append(col)
        mat = [[Fraction(0)] * self.dim for _ in range(len(classes))]
        for j, col in enumerate(cols):
            for i, v in col.items():
                mat[i][j] += v
        return mat

    def _sl2_lift(self, c, d):
        N = self.N
        c %= N
        d %= N
        if c == 0:
            c = N
        if gcd(c, d) != 1:
            # adjust d by multiples of N to make gcd(c,d)=1
            for k in range(N + 1):
                if gcd(c, d + k * N) == 1:
                    d = d + k * N
                    break
        g, b, a = xgcd(-c, d)  # -c*b + d*a = 1 -> a*d - b*c = 1
        assert g == 1 and a * d - b * c == 1
        return a, b, c, d

    # -- Hecke ---------------------------------------------------------------

    def hecke_matrix(self, n):
        """T_n on the quotient (columns indexed by free generators)."""
        N = self.N
        idx = self.p1._index
        reduce = self.p1.reduce
        red = self.red
        cols = []
        mats = merel_set(n)
        for (c, d) in self.free_symbols:
            acc = {}
            for (a, b, cc, dd) in mats:
                c1 = (a * c + cc * d) % N
                d1 = (b * c + dd * d) % N
                try:
                    r = reduce((c1, d1))
                except ValueError:
                    continue
                for k, v in red[idx[r]].items():
                    nv = acc.get(k, Fraction(0)) + v
                    if nv:
                        acc[k] = nv
                    else:
                        acc.pop(k, None)
            cols.append(acc)
        mat = [[Fraction(0)] * self.dim for _ in range(self.dim)]
        for j, acc in enumerate(cols):
            for i, v in acc.items():
                mat[i][j] = v
        return mat


# ---------------------------------------------------------- dense Q linalg


def mat_mul(A, B):
    n, m, k = len(A), len(B[0]), len(B)
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        Ai = A[i]
        Oi = out[i]
        for t in range(k):
            a = Ai[t]
            if a:
                Bt = B[t]
                for j in range(m):
                    if Bt[j]:
                        Oi[j] += a * Bt[j]
    return out


def mat_vec(A, v):
    return [sum(a * x for a, x in zip(row, v) if a and x) for row in A]


def rref(rows):
    """Reduced row echelon form over Q: (nonzero rows, their pivot columns).

    This is the one dense Gauss-Jordan elimination in the script; the
    nullspace, rank and solves below all read its output.
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        if r == len(rows):
            break
        piv = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = Fraction(1) / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def nullspace(mat, ncols):
    """(basis of the right kernel, free columns) of a Fraction matrix.

    Basis vector j is 1 at free column j and 0 at the other free columns, so
    the basis restricted to the free columns is the identity.
    """
    R, piv_cols = rref(mat)
    free_cols = [c for c in range(ncols) if c not in piv_cols]
    basis = []
    for fc in free_cols:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(R, piv_cols):
            v[pc] = -row[fc]
        basis.append(v)
    return basis, free_cols


def solve(A, B):
    """The X with A X = B (A rows x n of full column rank, B rows x m), or
    None when the system is inconsistent."""
    n = len(A[0])
    R, piv_cols = rref([list(a) + list(b) for a, b in zip(A, B)])
    if piv_cols and piv_cols[-1] >= n:
        return None
    assert piv_cols == list(range(n)), "matrix does not have full column rank"
    return [row[n:] for row in R]


def columns(vecs):
    """The matrix whose columns are the given vectors."""
    return [list(col) for col in zip(*vecs)]


# ------------------------------------------------------- charpoly via CRT


def _charpoly_modp(A, p):
    n = len(A)
    H = [[x % p for x in row] for row in A]
    for j in range(n - 2):
        piv = None
        for i in range(j + 1, n):
            if H[i][j]:
                piv = i
                break
        if piv is None:
            continue
        if piv != j + 1:
            H[piv], H[j + 1] = H[j + 1], H[piv]
            for r in range(n):
                H[r][piv], H[r][j + 1] = H[r][j + 1], H[r][piv]
        inv = pow(H[j + 1][j], p - 2, p)
        for i in range(j + 2, n):
            if H[i][j]:
                t = H[i][j] * inv % p
                Hi, Hj = H[i], H[j + 1]
                for c in range(j, n):
                    Hi[c] = (Hi[c] - t * Hj[c]) % p
                for r in range(n):
                    H[r][j + 1] = (H[r][j + 1] + t * H[r][i]) % p
    charpolys = [[1]]
    for m in range(1, n + 1):
        prev = charpolys[m - 1]
        pm = [0] + prev
        a = H[m - 1][m - 1]
        for k in range(len(prev)):
            pm[k] = (pm[k] - a * prev[k]) % p
        pm[-1] %= p
        prodsub = 1
        for i in range(m - 1, 0, -1):
            prodsub = prodsub * H[i][i - 1] % p
            t = H[i - 1][m - 1] * prodsub % p
            if t:
                pi = charpolys[i - 1]
                for k in range(len(pi)):
                    pm[k] = (pm[k] - t * pi[k]) % p
        charpolys.append([x % p for x in pm])
    return charpolys[n]


def charpoly(A):
    """Integer characteristic polynomial of a Fraction matrix, by CRT mod primes."""
    n = len(A)
    # collect denominators
    dens = set()
    for row in A:
        for x in row:
            dens.add(x.denominator)
    p = (1 << 61) - 1
    primes = []
    residues = []
    M = 1
    stable = 0
    current = None
    while stable < 3:
        # next prime not dividing any denominator
        while True:
            p += 2 if p % 2 else 1
            if is_prime(p) and all(d % p for d in dens):
                break
        Ap = [[(x.numerator * pow(x.denominator, -1, p)) % p for x in row] for row in A]
        residues.append(_charpoly_modp(Ap, p))
        primes.append(p)
        M *= p
        # CRT lift, symmetric range
        lifted = []
        for k in range(n + 1):
            r = 0
            for pi, poly in zip(primes, residues):
                Mi = M // pi
                r = (r + poly[k] * Mi * pow(Mi, -1, pi)) % M
            if r > M // 2:
                r -= M
            lifted.append(r)
        if lifted == current:
            stable += 1
        else:
            stable = 0
            current = lifted
        if len(primes) > 80:
            raise RuntimeError("charpoly did not stabilize")
    return current  # ascending coefficients, monic


# --------------------------------------------------------------- newforms


class Orbit:
    """A Galois orbit of newforms: eigenvalues in K = Q[x]/(g)."""

    def __init__(self, level, dim):
        self.level = level
        self.dim = dim
        self.field_poly = None      # ascending, monic, the chosen generator's min poly
        self.ap = {}                # prime -> coeff vector (Fractions) in generator power basis
        self.label = None
        self.traces = None

    def an_vectors(self, bound):
        """a_n for n=1..bound in the generator power basis (Fraction vectors)."""
        g = self.field_poly  # monic, so products reduce by divmod_monic
        one = [Fraction(1)] + [Fraction(0)] * (self.dim - 1)
        an = {1: one}
        N = self.level
        for p, ap in sorted(self.ap.items()):
            if p > bound:
                continue
            pk = p
            prev2, prev1 = one, ap
            an[p] = ap
            k = 1
            while pk * p <= bound:
                pk *= p
                k += 1
                if N % p == 0:
                    cur = polys.divmod_monic(polys.mul(prev1, ap), g)[1]
                else:
                    apa = polys.divmod_monic(polys.mul(ap, prev1), g)[1]
                    cur = [a - p * b for a, b in zip(apa, prev2)]
                an[pk] = cur
                prev2, prev1 = prev1, cur
        out = [None] * (bound + 1)
        out[1] = one
        for n in range(2, bound + 1):
            m = n
            acc = one
            ok = True
            for p in prime_divisors(n):
                pk = 1
                while m % p == 0:
                    m //= p
                    pk *= p
                if pk not in an:
                    ok = False
                    break
                acc = polys.divmod_monic(polys.mul(acc, an[pk]), g)[1]
            if not ok:
                raise RuntimeError(f"missing a_p for n={n}")
            out[n] = acc
        return out[1:]

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


def extract_newforms(N, prime_bound, verbose=True):
    """All weight-2 newform Galois orbits of level N with a_p for p <= prime_bound."""
    t0 = time.time()
    sp = PlusQuotient(N)
    g_expected = genus_gamma0(N)
    bmat = sp.boundary_matrix()
    cusp_basis, free_cols = nullspace(bmat, sp.dim)
    gdim = len(cusp_basis)
    assert gdim == g_expected, f"cuspidal dim {gdim} != genus {g_expected}"
    if verbose:
        print(f"[{N}] manin dim {sp.dim}, cuspidal dim {gdim} ({time.time()-t0:.1f}s)")

    B = columns(cusp_basis)  # sp.dim x gdim

    def restrict(T):
        # B is the identity on the rows of the free columns, so those rows
        # of B A = T B give A
        TB = mat_mul(T, B)
        A = [TB[i] for i in free_cols]
        # exact stability check
        BA = mat_mul(B, A)
        assert BA == TB, "cuspidal subspace not stable / restriction wrong"
        return A

    plist = [p for p in primes_up_to(prime_bound) ]
    hecke = {}
    for p in plist:
        t1 = time.time()
        hecke[p] = restrict(sp.hecke_matrix(p))
        if verbose:
            print(f"[{N}] T_{p} done ({time.time()-t1:.1f}s)", flush=True)

    good = [p for p in plist if N % p != 0]
    # generic combination (deterministic; retried with different weights on collision)
    for attempt in range(6):
        weights = [(3 * attempt + 1) * (i * i + i + 1) % 23 + (1 if i == 0 else 0) for i in range(len(good[:6]))]
        T = [[sum(weights[t] * hecke[good[t]][i][j] for t in range(len(weights))) for j in range(gdim)] for i in range(gdim)]
        chi = charpoly(T)
        P = Poly(list(reversed(chi)), X)
        _, factors = P.factor_list()
        mult1 = [(f, m) for f, m in factors if m == 1]
        multhi = [(f, m) for f, m in factors if m > 1]
        newdim = sum(f.degree() for f, m in mult1)
        olddim = sum(f.degree() * m for f, m in multhi)
        assert newdim + olddim == gdim
        # accounting: old part must equal sum over proper divisors
        expected_old = _old_dimension(N)
        if olddim == expected_old:
            break
        if verbose:
            print(f"[{N}] attempt {attempt}: old dim {olddim} != expected {expected_old}; retrying")
    else:
        raise RuntimeError("could not separate new/old eigensystems")

    orbits = []
    chiR = [Fraction(c) for c in chi]
    for f, _ in sorted(mult1, key=lambda fm: (fm[0].degree(), tuple(fm[0].all_coeffs()))):
        g = [Fraction(int(c)) for c in reversed(f.all_coeffs())]
        d = len(g) - 1
        # q = chi // g  (exact)
        assert g[-1] == 1
        q, r = polys.divmod_monic(chiR, g)
        assert not any(r)
        # kernel vectors via q(T) * e_j
        vecs = []
        j = 0
        while len(vecs) < d and j < gdim:
            e = [Fraction(0)] * gdim
            e[j] = Fraction(1)
            w = _horner_matvec(q, T, e)
            j += 1
            if any(w):
                cand = vecs + [w]
                if len(rref(cand)[1]) == len(cand):
                    vecs.append(w)
        assert len(vecs) == d
        v = vecs[0]
        # verify g(T) v = 0 exactly
        assert not any(_horner_matvec(g, T, v)), "kernel vector fails annihilation"
        W = [v]
        for _ in range(d - 1):
            W.append(mat_vec(T, W[-1]))
        tvs = [mat_vec(hecke[p], v) for p in plist]
        C = solve(columns(W), columns(tvs))
        assert C is not None, "a Hecke operator does not act as a scalar on the orbit"
        orbit = Orbit(N, d)
        theta_ap = {}
        for p, tv, coeffs in zip(plist, tvs, columns(C)):
            # exact check on the full vector
            full = [sum(coeffs[t] * W[t][i] for t in range(d)) for i in range(gdim)]
            assert full == tv, f"T_{p} does not act as a scalar on the orbit"
            theta_ap[p] = coeffs
        orbit._theta_poly = [int(c) for c in g]  # min poly of theta (the T-combination eigenvalue)
        orbit._theta_ap = theta_ap
        orbits.append(orbit)

    if verbose:
        print(f"[{N}] orbits: {[o.dim for o in orbits]} (new dim {newdim}, old {olddim}) "
              f"({time.time()-t0:.1f}s total)")
    return orbits


def _old_dimension(N):
    total = 0
    for M in divisors(N):
        if M == N or M < 11:
            continue
        nd = _new_dimension(M)
        if nd:
            total += nd * len(divisors(N // M))
    return total


_newdim_cache = {}


def _new_dimension(M):
    if M in _newdim_cache:
        return _newdim_cache[M]
    g = genus_gamma0(M)
    nd = g - _old_dimension(M)
    _newdim_cache[M] = nd
    return nd


def _horner_matvec(poly, T, v):
    acc = [poly[-1] * x for x in v]
    for c in reversed(poly[:-1]):
        acc = mat_vec(T, acc)
        for i in range(len(acc)):
            acc[i] += c * v[i]
    return acc


# --------------------------------------- choose generator / presentation


def _minpoly_and_powers(gamma, theta_poly):
    """Min poly of gamma (element of Q[x]/(theta_poly)) and its power matrix."""
    d = len(theta_poly) - 1
    pows = [[Fraction(1)] + [Fraction(0)] * (d - 1)]
    for _ in range(d):
        pows.append(polys.divmod_monic(polys.mul(pows[-1], gamma), theta_poly)[1])
    # the first k with gamma^k = sum_{i<k} c_i gamma^i; gamma^0..gamma^(k-1)
    # are independent, so the solve has full column rank
    for k in range(1, d + 1):
        sol = solve(columns(pows[:k]), [[x] for x in pows[k]])
        if sol is not None:
            minpoly = [-c for c, in sol] + [Fraction(1)]
            return minpoly, pows[:k]
    raise RuntimeError("no dependency found")


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
    if orbit.dim == 1:
        assert all(v[0].denominator == 1 for v in an)
        rec["an"] = [[int(v[0])] for v in an]
        return rec

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
