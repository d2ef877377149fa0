"""The Dirichlet character module that eiscong.characters replaced, kept
verbatim as a test oracle.

It stores a character mod f as its length-f table of exponents, rebuilds
that table through a dict for every group operation, and parses a label by
enumerating all euler_phi(f) characters mod f and comparing their labels.
The library stores the label data, the exponent of zeta_k at each generator
of (Z/fZ)^*, and derives the table from it.  Only the imports changed: they
name the library's modules, whose `arith` and `cyclotomic` the oracle
shares.  The oracle's own `unit_group` is the same code as the library's,
so the generators, and therefore the labels, agree.

The former module docstring:

Dirichlet characters with exact cyclotomic values.

A character mod f of order k is stored as an exponent table on (Z/fZ)^*:
chi(a) = zeta_k^e(a), non-units map to 0.  The representation is canonical
(k is the exact order).  Values, Gauss sums and the generalized Bernoulli
number B2 are exact CycElements.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm

from eiscong.arith import DomainError, crt, divisors, euler_phi, factor, is_prime, record
from eiscong.cyclotomic import CycElement, CyclotomicField

CHARACTER_MODULUS_CAP = 10 ** 4


def _primitive_root(p: int, e: int) -> int:
    """Generator of (Z/p^e)^* for odd prime p."""
    phi = p - 1
    qs = factor(phi).primes()
    g = None
    for cand in range(2, p):
        if all(pow(cand, phi // q, p) != 1 for q in qs):
            g = cand
            break
    assert g is not None
    if e == 1:
        return g
    if pow(g, p - 1, p * p) == 1:
        g += p
    return g


@lru_cache(maxsize=None)
def unit_group(f: int):
    """Generators, their orders, and discrete logs for (Z/fZ)^*.

    Returns (gens, orders, dlog) with dlog[a] the exponent tuple of the unit a.
    """
    if f > CHARACTER_MODULUS_CAP:
        raise DomainError(f"character modulus cap exceeded: {f} > {CHARACTER_MODULUS_CAP}")
    if f == 1:
        return (), (), {0: ()}
    gens: list[int] = []
    orders: list[int] = []
    for p, e in factor(f):
        q = p ** e
        rest = f // q
        if p == 2:
            if e == 1:
                continue
            gens.append(crt(q - 1, q, 1, rest))
            orders.append(2)
            if e >= 3:
                gens.append(crt(5, q, 1, rest))
                orders.append(2 ** (e - 2))
        else:
            gens.append(crt(_primitive_root(p, e), q, 1, rest))
            orders.append(euler_phi(q))
    dlog = {1 % f: (0,) * len(gens)}
    for i, (g, n) in enumerate(zip(gens, orders)):
        new = {}
        for a, vec in dlog.items():
            x = a
            for j in range(1, n):
                x = x * g % f
                v = list(vec)
                v[i] = j
                new[x] = tuple(v)
        dlog.update(new)
    assert len(dlog) == euler_phi(f)
    return tuple(gens), tuple(orders), dlog


@record
class DirichletCharacter:
    """Character mod `modulus` of exact order `order`; exponents[a] in Z/order
    for units a (indexed 0..modulus-1), None at non-units."""

    modulus: int
    order: int
    exponents: tuple

    # -- construction -------------------------------------------------------

    @staticmethod
    def from_exponents(f: int, k: int, table: dict[int, int]) -> "DirichletCharacter":
        """Canonicalize: reduce k to the exact order."""
        if f == 1:
            return DirichletCharacter(1, 1, (0,))
        g = gcd(k, *table.values())
        exps = [None] * f
        for a, e in table.items():
            exps[a] = e // g % (k // g)
        return DirichletCharacter(f, k // g, tuple(exps))

    @staticmethod
    def trivial(f: int = 1) -> "DirichletCharacter":
        if f == 1:
            return DirichletCharacter(1, 1, (0,))
        table = {a: 0 for a in range(f) if gcd(a, f) == 1}
        return DirichletCharacter.from_exponents(f, 1, table)

    # -- basic queries -------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.order == 1

    def value_exponent(self, n: int):
        """e with chi(n) = zeta_order^e, or None when gcd(n, f) > 1."""
        if self.modulus == 1:
            return 0
        return self.exponents[n % self.modulus]

    def value(self, n: int) -> CycElement:
        """chi(n) as an element of Q(zeta_order)."""
        K = CyclotomicField(self.order)
        e = self.value_exponent(n)
        if e is None:
            return K.zero()
        return K.zeta(e)

    def __call__(self, n: int) -> CycElement:
        return self.value(n)

    def is_even(self) -> bool:
        return self.value_exponent(-1) == 0

    # -- group operations ------------------------------------------------------

    def power(self, j: int) -> "DirichletCharacter":
        table = {a: (e * j) % self.order
                 for a, e in enumerate(self.exponents) if e is not None}
        if self.modulus == 1:
            return self
        return DirichletCharacter.from_exponents(self.modulus, self.order, table)

    def __pow__(self, j: int) -> "DirichletCharacter":
        return self.power(j)

    def inverse(self) -> "DirichletCharacter":
        return self.power(-1)

    def extend(self, M: int) -> "DirichletCharacter":
        """The (imprimitive) character mod M induced by chi; modulus | M."""
        if M % self.modulus:
            raise DomainError(f"cannot extend modulus {self.modulus} to {M}")
        if M == self.modulus:
            return self
        table = {}
        for a in range(M):
            if gcd(a, M) == 1:
                e = self.value_exponent(a)
                assert e is not None
                table[a] = e
        return DirichletCharacter.from_exponents(M, self.order, table)

    def __mul__(self, other: "DirichletCharacter") -> "DirichletCharacter":
        M = lcm(self.modulus, other.modulus)
        a, b = self.extend(M), other.extend(M)
        k = lcm(a.order, b.order)
        table = {}
        for n in range(M):
            ea, eb = a.value_exponent(n), b.value_exponent(n)
            if ea is None or eb is None:
                continue
            table[n] = (ea * (k // a.order) + eb * (k // b.order)) % k
        if M == 1:
            return DirichletCharacter.trivial()
        return DirichletCharacter.from_exponents(M, k, table)

    # -- conductor / primitivity ------------------------------------------------

    def conductor(self) -> int:
        if self.modulus == 1:
            return 1
        for d in divisors(self.modulus):
            if self._factors_through(d):
                return d
        return self.modulus

    def _factors_through(self, d: int) -> bool:
        """chi(a) = 1 for all units a = 1 mod d."""
        f = self.modulus
        for a in range(1, f + 1):
            if gcd(a, f) == 1 and a % d == 1 % d:
                if self.exponents[a % f] != 0:
                    return False
        return True

    def primitive_part(self) -> "DirichletCharacter":
        d = self.conductor()
        if d == self.modulus:
            return self
        if d == 1:
            return DirichletCharacter.trivial()
        f = self.modulus
        table = {}
        for u in range(d):
            if gcd(u, d) != 1:
                continue
            a = u
            while gcd(a, f) != 1:
                a += d
            table[u] = self.exponents[a % f]
        return DirichletCharacter.from_exponents(d, self.order, table)

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    # -- label -------------------------------------------------------------------

    def label(self) -> str:
        """CLI label f.k.e1-e2-... (exponents of zeta_k on the fixed generators)."""
        gens, _, _ = unit_group(self.modulus)
        if not gens:
            return f"{self.modulus}.1.0"
        es = [str(self.value_exponent(g)) for g in gens]
        return f"{self.modulus}.{self.order}." + "-".join(es)

    def __repr__(self):
        return f"DirichletCharacter({self.label()})"


def enumerate_characters(f: int) -> list[DirichletCharacter]:
    """All euler_phi(f) characters mod f, ordered by generator exponent vectors."""
    if f < 1:
        raise DomainError("modulus must be >= 1")
    if f == 1:
        return [DirichletCharacter.trivial()]
    gens, orders, dlog = unit_group(f)
    out = []

    def rec(i, choice):
        if i == len(gens):
            k = 1
            for t, n in zip(choice, orders):
                k = lcm(k, n // gcd(n, t) if t else 1)
            table = {}
            for a, vec in dlog.items():
                e = 0
                for t, x, n in zip(choice, vec, orders):
                    assert (k * t) % n == 0
                    e += x * (k * t // n)
                table[a] = e % k
            out.append(DirichletCharacter.from_exponents(f, k, table))
            return
        for t in range(orders[i]):
            rec(i + 1, choice + (t,))

    rec(0, ())
    assert len(out) == euler_phi(f)
    return out


def quadratic_character(p: int) -> DirichletCharacter:
    """The Legendre character mod an odd prime p."""
    if not is_prime(p) or p == 2:
        raise DomainError("quadratic_character needs an odd prime")
    table = {a: (0 if pow(a, (p - 1) // 2, p) == 1 else 1) for a in range(1, p)}
    return DirichletCharacter.from_exponents(p, 2, table)


def character_from_label(label: str) -> DirichletCharacter:
    """Parse the CLI label f.k.e1-e2-..."""
    try:
        f_s, k_s, e_s = label.split(".")
        f, k = int(f_s), int(k_s)
        exps = [int(t) for t in e_s.split("-")]
    except ValueError as exc:
        raise DomainError(f"bad character label {label!r}") from exc
    for chi in enumerate_characters(f):
        if chi.label() == f"{f}.{k}." + "-".join(str(e % k if k > 1 else 0) for e in exps):
            return chi
    raise DomainError(f"no character with label {label!r}")


# -- Gauss sums and Bernoulli numbers ------------------------------------------


def gauss_sum(chi: DirichletCharacter) -> CycElement:
    """tau(chi) = sum chi(a) zeta_f^a in Q(zeta_lcm(f,k)); chi primitive."""
    if not chi.is_primitive():
        raise DomainError("gauss_sum requires a primitive character")
    f, k = chi.modulus, chi.order
    if f == 1:
        return CyclotomicField(1).one()
    L = lcm(f, k)
    K = CyclotomicField(L)
    acc = [0] * L
    for a in range(1, f):
        e = chi.value_exponent(a)
        if e is None:
            continue
        acc[(e * (L // k) + a * (L // f)) % L] += 1
    return K.power_sum(acc)


def gauss_sum_inverse(chi: DirichletCharacter) -> CycElement:
    """1/tau(chi) = chi(-1) tau(chi^-1) / f for primitive chi of conductor f,
    from tau(chi) tau(chi^-1) = chi(-1) f (Washington, Introduction to
    Cyclotomic Fields, Lemma 4.8); in the field of gauss_sum(chi)."""
    sign = 1 if chi.is_even() else -1
    return gauss_sum(chi.inverse()) * Fraction(sign, chi.modulus)


def bernoulli_B2(chi: DirichletCharacter) -> CycElement:
    """B2(chi) = m sum_{a=0}^{m-1} chi(a)((a/m)^2 - a/m + 1/6), m = conductor.

    Computed on the primitive part (the paper only applies B2 to primitive
    characters); the trivial character gives 1/6.
    """
    chi = chi.primitive_part()
    m, k = chi.modulus, chi.order
    K = CyclotomicField(k)
    if m == 1:
        return K.from_rational(Fraction(1, 6))
    acc = [0] * k  # 6 m^2 ((a/m)^2 - a/m + 1/6) per term
    for a in range(1, m):
        e = chi.value_exponent(a)
        if e is None:
            continue
        acc[e % k] += 6 * a * a - 6 * a * m + m * m
    return K.power_sum(acc) * Fraction(1, 6 * m)
