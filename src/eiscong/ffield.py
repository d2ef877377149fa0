"""F_{q^r} arithmetic and root finding for reduction maps mod primes above q.

The field is realized as F_q[x]/(h) with h the lexicographically smallest
monic irreducible of degree r (a fixed, bundled, Conway-style choice, so
element representations are reproducible).  A candidate h is irreducible
exactly when the first factor that the distinct-degree split below yields
has degree r, so the search reads no further than that first factor.  An
element is the r-tuple of its ints on the power basis 1, x, ..., x^(r-1),
and the field has no enumeration order.  A product is a schoolbook product into 2r - 1 integers, folded down by the
monic h, with one `% q` at the end.  Frobenius a -> a^q is F_q-linear, so
each field carries its r x r matrix on the power basis (the columns are
x^(iq) mod h), built with the field; a^(q^i) costs i matrix-vector
products.  An inverse is taken by the norm, a^-1 = N(a)^-1 prod_{0<i<r}
a^(q^i) with N(a) = a prod_{0<i<r} a^(q^i) in F_q (Itoh-Tsujii), and is
pow(a, -1, q) when r = 1.

Polynomials over a field F are lists of F-elements, ascending, with no zero
leading coefficient.  One set of functions serves every such F: F_q itself
is the r = 1 case FiniteField(q, 1, (0, 1)), whose elements are 1-tuples.
Division is by monic divisors only.  Inputs are made monic once, on entry,
and the gcd makes each remainder monic before dividing by it.
`ideals.descriptor` forms its bivariate T_r relations with the same
product, by Kronecker substitution.

An integer polynomial f is factored mod the prime q once (`factor_mod_q`):
into its distinct monic irreducible factors over F_q, by distinct-degree
splitting and then equal-degree (Cantor-Zassenhaus) splitting, with gcd(g,
a^((q^e-1)/2) - 1) for a random a, or the trace sum_{i<e} a^(2^i) in
characteristic 2 (Cohen, GTM 138, 3.4; von zur Gathen-Gerhard, ch. 14).
`roots_in_field` takes that factorization, not f: the roots of f in F_{q^r}
are read off the factors whose degree e divides r, and the roots of a
factor u of degree e are one Frobenius orbit x, x^q, ...,
x^(q^(e-1)).  Where the degree settles them they are read directly: a
linear y + u_0 gives -u_0, and for odd q an irreducible y^2 + b y + c in
F_{q^2} = F_q[x]/(x^2 + h_1 x + h_0) gives (-b +- s (2x + h_1)) / 2, since
(2x + h_1)^2 = disc(h), with s^2 = disc(u) / disc(h) (two non-squares) one
Tonelli-Shanks square root in F_q (Cohen, GTM 138, 1.5).  Any other factor,
a quadratic over F_2 or in F_{q^r} with r > 2, or of degree >= 3, has one
root found by splitting u over F with y + c (c y in characteristic 2), c the
trace to F_{q^e} of a random element (a c in F_q cannot separate
conjugates): the norm prod_i (y^(q^i) + c^(q^i)), or the trace sum_i c^(2^i)
y^(2^i), has its values at the roots in F_q, so the e = 1 split applies,
with y^(q^i) mod u computed once over F_q.  A caller that needs the roots of
one f in several fields factors f once and passes the factorization to each
`roots_in_field`.

Monic integer polynomials factor over Z on the same core (Zassenhaus; von
zur Gathen-Gerhard, ch. 15).  The squarefree part is f / gcd(f, f'), the
gcd a heuristic one that division confirms.  It is factored mod the first
prime l >= 3 that keeps it squarefree, by `factor_mod_q`.  Its factors
become integer lists once, and from there on all arithmetic is
on integer lists mod a power of l: a tree of quadratic Hensel steps lifts
them mod l^k past twice Mignotte's bound on the coefficients of a factor,
and the smallest subsets whose product divides f exactly give the
irreducible factors.  Their multiplicities come from repeated division.
"""

from __future__ import annotations

import random
from functools import lru_cache, reduce
from itertools import combinations, count, product, zip_longest
from math import gcd, isqrt
from operator import mul

from . import polys
from .arith import DomainError, is_prime, record

# The library enumerates no field; the benchmark's traced run counts the root
# searches in fields above this size.
ENUMERATION_CAP = 1 << 16


@record
class FiniteField:
    """F_{q^r} as F_q[x]/(h); elements are int tuples of length r."""

    q: int
    r: int
    modulus: tuple[int, ...]
    # rows of the matrix of a -> a^q on the power basis; None when r = 1
    frobenius: tuple | None
    _computed = ("frobenius",)  # set by __post_init__; outside ==, hash and repr

    def __post_init__(self):
        matrix = None
        if self.r > 1:
            xq = self.pow((0, 1) + (0,) * (self.r - 2), self.q)  # x^q
            columns = [self.one()]
            for _ in range(self.r - 1):
                columns.append(self.mul(columns[-1], xq))
            matrix = tuple(zip(*columns))
        object.__setattr__(self, "frobenius", matrix)

    @staticmethod
    def create(q: int, r: int) -> "FiniteField":
        return FiniteField(q, r, conway_style_modulus(q, r))

    @property
    def size(self) -> int:
        return self.q ** self.r

    def zero(self):
        return (0,) * self.r

    def one(self):
        return tuple([1] + [0] * (self.r - 1))

    def from_int(self, n: int):
        return tuple([n % self.q] + [0] * (self.r - 1))

    def add(self, a, b):
        if self.r == 1:
            return ((a[0] + b[0]) % self.q,)
        return tuple((x + y) % self.q for x, y in zip(a, b))

    def sub(self, a, b):
        if self.r == 1:
            return ((a[0] - b[0]) % self.q,)
        return tuple((x - y) % self.q for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x % self.q for x in a)

    def mul(self, a, b):
        q, r = self.q, self.r
        if r == 1:
            return (a[0] * b[0] % q,)
        prod = [0] * (2 * r - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    prod[i + j] += x * y
        h = self.modulus
        for top in range(2 * r - 2, r - 1, -1):
            c = prod[top]
            if c:
                off = top - r
                for i in range(r):
                    prod[off + i] -= c * h[i]
        return tuple(x % q for x in prod[:r])

    def pow(self, a, e: int):
        result = self.one()
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def frob(self, a):
        """a^q, as the F_q-linear map on the power basis."""
        if self.frobenius is None:
            return a
        q = self.q
        return tuple(sum(map(mul, a, row)) % q for row in self.frobenius)

    def inv(self, a):
        if not any(a):
            raise ZeroDivisionError("inverse of 0 in finite field")
        q = self.q
        if self.r == 1:
            return (pow(a[0], -1, q),)
        # a^-1 = N(a)^-1 prod_{0<i<r} a^(q^i), with N(a) = a prod_{0<i<r} a^(q^i) in F_q
        conjugate = rest = self.frob(a)
        for _ in range(self.r - 2):
            conjugate = self.frob(conjugate)
            rest = self.mul(rest, conjugate)
        c = pow(self.mul(a, rest)[0], -1, q)
        return tuple(x * c % q for x in rest)


# ------------------------------------------------- polynomials over a field F


def _trim(a):
    while a and not any(a[-1]):
        a.pop()
    return a


def _monic(a, F):
    if not a or a[-1] == F.one():
        return a
    inv = F.inv(a[-1])
    return [F.mul(c, inv) for c in a]


def _pmul(a, b, F):
    out = [F.zero()] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if any(x):
            for j, y in enumerate(b):
                out[i + j] = F.add(out[i + j], F.mul(x, y))
    return _trim(out)


def _psub(a, b, F):
    return _trim([F.sub(x, y) for x, y in zip_longest(a, b, fillvalue=F.zero())])


def _pdivmod(a, m, F):
    """(quotient, remainder) of a by the monic m."""
    d = len(m) - 1
    rem = list(a)
    quo = [F.zero()] * max(0, len(rem) - d)
    for top in range(len(rem) - 1, d - 1, -1):
        c = rem[top]
        if any(c):
            off = top - d
            quo[off] = c
            for i in range(d):
                rem[off + i] = F.sub(rem[off + i], F.mul(m[i], c))
    return _trim(quo), _trim(rem[:d])


def _pgcd(a, b, F):
    """The monic gcd of a and b."""
    while b:
        b = _monic(b, F)
        a, b = b, _pdivmod(a, b, F)[1]
    return _monic(a, F)


def _ppowmod(a, e, m, F):
    """a^e mod the monic m, left to right, so every product but the squares
    is by a mod m (often y or y + c)."""
    result = [F.one()]
    base = _pdivmod(a, m, F)[1]
    for bit in bin(e)[2:]:
        result = _pdivmod(_pmul(result, result, F), m, F)[1]
        if bit == "1":
            result = _pdivmod(_pmul(result, base, F), m, F)[1]
    return result


def _reduce_monic(int_poly, Fq):
    """An integer polynomial mod q, made monic; [] if it vanishes mod q."""
    return _monic(_trim([Fq.from_int(int(c)) for c in int_poly]), Fq)


@lru_cache(maxsize=None)
def conway_style_modulus(q: int, r: int) -> tuple[int, ...]:
    """Lexicographically smallest monic irreducible of degree r over F_q."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    if r == 1:
        return (0, 1)
    Fq = FiniteField(q, 1, (0, 1))
    # lexicographic in (c_{r-1}, ..., c_1, c_0), with c_0 != 0
    for top in product(*[range(q)] * (r - 1), range(1, q)):
        h = [*top[::-1], 1]
        if next(_distinct_degree(_reduce_monic(h, Fq), Fq))[0] == r:  # irreducible
            return tuple(h)
    raise ArithmeticError("no irreducible polynomial found")


def factor_mod_q(int_poly, q: int) -> list[tuple[int, tuple[int, ...]]]:
    """[(e, u)]: the distinct monic irreducible factors u of f mod the prime q
    (ascending int coefficients), each with its degree e, sorted."""
    if not is_prime(q):
        raise DomainError(f"{q} is not prime")
    Fq = FiniteField(q, 1, (0, 1))
    fp = _reduce_monic(int_poly, Fq)
    if len(fp) <= 1:
        raise DomainError("polynomial is constant mod q")
    rng = random.Random(0x5EED)
    return sorted((e, tuple(c[0] for c in u)) for e, fe in _distinct_degree(fp, Fq)
                  for u in _equal_degree(fe, e, Fq, rng))


def roots_in_field(factors, F: FiniteField):
    """All roots in F (each distinct root once), sorted, of the integer
    polynomial f whose factorization mod F.q is `factors` = factor_mod_q(f, F.q)."""
    rng = random.Random(0x5EED)
    roots = []
    for e, u in factors:
        if e == 1:
            roots.append(F.from_int(-u[0]))
        elif e == F.r == 2 and F.q != 2:
            roots += _quadratic_roots(u, F)
        elif F.r % e == 0:
            orbit = [_one_root(u, e, F, rng)]
            while len(orbit) < e:
                orbit.append(F.frob(orbit[-1]))
            roots += orbit
    return sorted(roots)


def _quadratic_roots(u, F):
    """Both roots in F = F_q[x]/(h), deg h = 2 and q odd, of the irreducible
    y^2 + b y + c = u over F_q: (-b +- s (2x + h_1)) / 2, since (2x + h_1)^2 =
    disc(h), with s^2 = disc(u) / disc(h) in F_q (both are non-squares)."""
    q, (h0, h1, _), (c, b, _) = F.q, F.modulus, u
    half = (q + 1) // 2
    s = _sqrt_mod((b * b - 4 * c) * pow(h1 * h1 - 4 * h0, -1, q), q)
    return [((s * h1 - b) * half % q, s), ((-s * h1 - b) * half % q, -s % q)]


def _sqrt_mod(a, q):
    """A square root of the square a mod the odd prime q (Tonelli-Shanks;
    Cohen, GTM 138, Alg. 1.5.1)."""
    e, t = 0, q - 1
    while t % 2 == 0:
        e, t = e + 1, t // 2
    z = next(z for z in range(2, q) if pow(z, (q - 1) // 2, q) == q - 1)
    y, x, b = pow(z, t, q), pow(a, (t + 1) // 2, q), pow(a, t, q)
    while b != 1:
        m, b2 = 1, b * b % q  # the order of b is 2^m
        while b2 != 1:
            m, b2 = m + 1, b2 * b2 % q
        w = pow(y, 1 << (e - m - 1), q)
        y, e = w * w % q, m
        x, b = x * w % q, b * y % q
    return x


def cyclotomic_residue(k: int, q: int) -> tuple[int, int]:
    """(k', d): k' the prime-to-q part of k and d the order of q mod k', so
    that the roots of Phi_k mod q have exact order k' and lie in F_{q^d}."""
    while k % q == 0:
        k //= q
    d = 1
    while pow(q, d, k) != 1 % k:
        d += 1
    return k, d


def _probe(a, g, e, F):
    """a^((q^e-1)/2) - 1 mod g, or sum_{i<e} a^(2^i) mod g when q = 2."""
    if F.q == 2:
        power = h = _pdivmod(a, g, F)[1]
        for _ in range(e - 1):
            power = _pdivmod(_pmul(power, power, F), g, F)[1]
            h = _psub(h, power, F)  # h + power in characteristic 2
        return h
    return _psub(_ppowmod(a, (F.q ** e - 1) // 2, g, F), [F.one()], F)


def _equal_degree(g, e, Fq, rng):
    """The irreducible factors over F_q of g, a product of distinct ones of degree e."""
    if len(g) - 1 == e:
        return [g]
    while True:
        a = _trim([Fq.from_int(rng.randrange(Fq.q)) for _ in range(len(g) - 1)])
        d = _pgcd(g, _probe(a, g, e, Fq), Fq)
        if 1 < len(d) < len(g):
            return (_equal_degree(d, e, Fq, rng)
                    + _equal_degree(_pdivmod(g, d, Fq)[0], e, Fq, rng))


def _one_root(u, e, F, rng):
    """One root in F of u, irreducible of degree e over F_q and given by its
    int coefficients (see the module notes)."""
    Fq = FiniteField(F.q, 1, (0, 1))
    u = [(c,) for c in u]
    frob = [[Fq.zero(), Fq.one()]]  # y^(q^i) mod u, i < e
    for _ in range(e - 1):
        frob.append(_ppowmod(frob[-1], F.q, u, Fq))
    u, *frob = ([F.from_int(c[0]) for c in p] for p in (u, *frob))
    while len(u) > 2:
        # c = Tr_{F/F_{q^e}}(z): a c in F_q cannot separate conjugate roots
        z = c = tuple(rng.randrange(F.q) for _ in range(F.r))
        for _ in range(F.r // e - 1):
            for _ in range(e):
                z = F.frob(z)
            c = F.add(c, z)
        a = [] if F.q == 2 else [F.one()]  # the trace of c y, or the norm of y + c
        for i, y_i in enumerate(frob):
            c = F.frob(c) if i else c
            if F.q == 2:
                a = _psub(a, [F.mul(c, x) for x in y_i], F)
            else:
                a = _pdivmod(_pmul(a, _psub(y_i, [F.neg(c)], F), F), u, F)[1]
        d = _pgcd(u, _probe(a, u, 1, F), F)
        if 1 < len(d) < len(u):
            u = min(d, _pdivmod(u, d, F)[0], key=len)
            frob = [_pdivmod(y_i, u, F)[1] for y_i in frob]
    return F.neg(u[0])


def _distinct_degree(f, Fq):
    """Yields (e, f_e) by ascending e, f_e the product of the distinct
    irreducible factors of degree e of the monic f over F_q: gcd(y^{q^e} - y,
    f) once every copy of the factors of lower degree is divided out, so f
    need not be squarefree.  Each pair costs only what its degree needs, so a
    caller may stop early."""
    power = y = [Fq.zero(), Fq.one()]
    e = 0
    while len(f) > 1:
        e += 1
        if 2 * e > len(f) - 1:  # f is irreducible
            yield len(f) - 1, f
            return
        power = _ppowmod(power, Fq.q, f, Fq)
        d = _pgcd(_psub(power, y, Fq), f, Fq)
        if len(d) > 1:
            yield e, d
            while len(d) > 1:
                f = _pdivmod(f, d, Fq)[0]
                d = _pgcd(f, d, Fq)


# ------------------------------------------------------ factoring over Z


def _pxgcd(a, b, F):
    """(s, t) with s a + t b = 1, for coprime a and b over F."""
    r0, r1, s0, s1, t0, t1 = a, b, [F.one()], [], [], [F.one()]
    while r1:
        c = F.inv(r1[-1])
        q = [F.mul(x, c) for x in _pdivmod(r0, [F.mul(x, c) for x in r1], F)[0]]
        r0, r1 = r1, _psub(r0, _pmul(q, r1, F), F)
        s0, s1 = s1, _psub(s0, _pmul(q, s1, F), F)
        t0, t1 = t1, _psub(t0, _pmul(q, t1, F), F)
    c = F.inv(r0[0])
    return [F.mul(x, c) for x in s0], [F.mul(x, c) for x in t0]


def _zmod(a, m):
    """An integer polynomial mod m, in [0, m), trimmed."""
    out = [x % m for x in a]
    while out and not out[-1]:
        out.pop()
    return out


def _zlin(m, *terms):
    """The sum of c * a over the (c, a) in terms, mod m."""
    out = []
    for c, a in terms:
        out += [0] * (len(a) - len(out))
        for i, x in enumerate(a):
            out[i] += c * x
    return _zmod(out, m)


def _hensel(f, g, h, ell, top):
    """Monic (g, h) with f = g h mod top, from monic g, h with f = g h mod ell
    and gcd(g, h) = 1 mod ell, top a power of ell (quadratic lifting, von zur
    Gathen-Gerhard, Alg. 15.10)."""
    Fl = FiniteField(ell, 1, (0, 1))
    s, t = ([x[0] for x in v] for v in _pxgcd([(x,) for x in g], [(x,) for x in h], Fl))
    mul, m = polys.mul, ell
    while m < top:
        m = min(m * m, top)
        e = _zlin(m, (1, f), (-1, mul(g, h)))
        q, r = polys.divmod_monic(mul(s, e), h)
        g = _zlin(m, (1, g), (1, mul(t, e)), (1, mul(q, g)))
        h = _zlin(m, (1, h), (1, r))
        b = _zlin(m, (1, mul(s, g)), (1, mul(t, h)), (-1, [1]))
        c, d = polys.divmod_monic(mul(s, b), h)
        s = _zlin(m, (1, s), (-1, d))
        t = _zlin(m, (1, t), (-1, mul(t, b)), (-1, mul(c, g)))
    return g, h


def _lift_all(f, factors, ell, top):
    """Monic lifts mod top of the monic factors of f mod ell (integer lists),
    by a balanced tree of two-factor lifts."""
    if len(factors) == 1:
        return [_zmod(f, top)]
    half = len(factors) // 2
    g, h = (_zmod(reduce(polys.mul, part), ell) for part in (factors[:half], factors[half:]))
    g, h = _hensel(f, g, h, ell, top)
    return _lift_all(g, factors[:half], ell, top) + _lift_all(h, factors[half:], ell, top)


def _gcd_z(f, g):
    """The monic gcd of the monic f and g in Z[x]: the heuristic gcd (Geddes,
    Czapor and Labahn, Algorithms for Computer Algebra, Thm. 7.7), whose
    candidate is the gcd once it divides both."""
    xi = 2 * min(max(map(abs, f)), max(map(abs, g))) + 29
    for _ in range(20):
        h = gcd(_eval(f, xi), _eval(g, xi))
        cand = []
        while h:
            c = h % xi
            c -= xi if 2 * c > xi else 0
            cand.append(c)
            h = (h - c) // xi
        content = gcd(*cand) if cand[-1] > 0 else -gcd(*cand)
        cand = [c // content for c in cand]
        if cand[-1] == 1 and not any(polys.divmod_monic(f, cand)[1]) \
                and not any(polys.divmod_monic(g, cand)[1]):
            return cand
        xi = xi * 73794 // 27011
    raise ArithmeticError("heuristic gcd did not converge")


def _eval(f, x):
    """f(x) by Horner's rule."""
    acc = 0
    for c in reversed(f):
        acc = acc * x + c
    return acc


def _zassenhaus(f):
    """The monic irreducible factors over Z of the monic squarefree f: factor
    mod the first prime ell >= 3 that keeps f squarefree, lift the factors
    past twice Mignotte's bound, and recombine the smallest subsets whose
    product divides f."""
    n = len(f) - 1
    for ell in filter(is_prime, count(3, 2)):
        Fl = FiniteField(ell, 1, (0, 1))
        derivative = _trim([Fl.from_int(i * c) for i, c in enumerate(f)][1:])
        if len(_pgcd(_reduce_monic(f, Fl), derivative, Fl)) == 1:
            break
    factors = [list(u) for _, u in factor_mod_q(f, ell)]
    bound = 2 ** n * (isqrt(sum(c * c for c in f)) + 1)
    top = ell
    while top <= 2 * bound:
        top *= ell
    lifted = _lift_all(f, factors, ell, top)
    out, size = [], 1
    while 2 * size <= len(lifted):
        for subset in combinations(range(len(lifted)), size):
            g = _zmod(reduce(polys.mul, (lifted[i] for i in subset)), top)
            g = [c - top if 2 * c > top else c for c in g]
            q, r = polys.divmod_monic(f, g)
            if not any(r):
                out.append(g)
                f = q
                lifted = [u for i, u in enumerate(lifted) if i not in subset]
                break
        else:
            size += 1
    return out + [f] if len(f) > 1 else out


def factor_over_z(f) -> list[tuple[list[int], int]]:
    """[(g, m)]: the monic irreducible factors g over Z of the monic integer
    polynomial f (ascending coefficients), each with its multiplicity m,
    sorted by degree and then by descending coefficients."""
    f = [int(c) for c in f]
    if not f or f[-1] != 1:
        raise DomainError("factor_over_z needs a monic polynomial")
    if len(f) == 1:
        return []
    square_free = polys.divmod_monic(f, _gcd_z(f, [i * c for i, c in enumerate(f)][1:]))[0]
    out = []
    for g in _zassenhaus(square_free):
        m = 0
        while True:
            q, r = polys.divmod_monic(f, g)
            if any(r):
                break
            f, m = q, m + 1
        out.append((g, m))
    return sorted(out, key=lambda gm: (len(gm[0]), gm[0][::-1]))
