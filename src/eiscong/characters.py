"""Dirichlet characters with exact cyclotomic values.

A character mod f of exact order k is stored as its label data: gens[i] is
the exponent of zeta_k at the i-th generator of (Z/fZ)^* (`unit_group`),
and the label f.k.e1-e2-... writes them out.  k is the exact order, so the
form is canonical.  The table of exponents at every unit, chi(a) =
zeta_k^e(a) (non-units map to 0), is derived from gens through unit_group's
discrete logs once per character.  Values, Gauss sums and the generalized
Bernoulli number B2 are exact CycElements.

The library takes powers of one character (`power`, `inverse`) and its
primitive part.  It never multiplies two characters or induces one to a
larger modulus, and it reads a value with `value`.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import gcd, lcm
from operator import mul

from .arith import DomainError, crt, divisors, euler_phi, factor, is_prime, record
from .cyclotomic import CycElement, CyclotomicField

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


def _make(f: int, k: int, gens) -> "DirichletCharacter":
    """The character mod f with chi(g_i) = zeta_k^gens[i] at the generators
    g_i of unit_group(f), k reduced to the exact order."""
    g = gcd(k, *gens)
    return DirichletCharacter(f, k // g, tuple(e // g % (k // g) for e in gens))


@record
class DirichletCharacter:
    """Character mod `modulus` of exact order `order`: gens[i] in Z/order is
    the exponent of zeta_order at the i-th generator of unit_group(modulus).
    exponents[a] (a = 0..modulus-1) is the exponent at a unit a, None at
    non-units, derived from gens once per character."""

    modulus: int
    order: int
    gens: tuple
    exponents: tuple
    _computed = ("exponents",)  # set by __post_init__; outside ==, hash and repr

    def __post_init__(self):
        _, _, dlog = unit_group(self.modulus)
        k, gens = self.order, self.gens
        table = [None] * self.modulus
        for a, vec in dlog.items():
            table[a] = sum(map(mul, vec, gens)) % k
        object.__setattr__(self, "exponents", tuple(table))

    @staticmethod
    def trivial(f: int = 1) -> "DirichletCharacter":
        return DirichletCharacter(f, 1, (0,) * len(unit_group(f)[0]))

    # -- basic queries -------------------------------------------------------

    def is_trivial(self) -> bool:
        return self.order == 1

    def value_exponent(self, n: int):
        """e with chi(n) = zeta_order^e, or None when gcd(n, f) > 1."""
        return self.exponents[n % self.modulus]

    def value(self, n: int) -> CycElement:
        """chi(n) as an element of Q(zeta_order)."""
        K = CyclotomicField(self.order)
        e = self.value_exponent(n)
        if e is None:
            return K.zero()
        return K.zeta(e)

    def is_even(self) -> bool:
        return self.value_exponent(-1) == 0

    # -- powers ----------------------------------------------------------------

    def power(self, j: int) -> "DirichletCharacter":
        return _make(self.modulus, self.order, [e * j for e in self.gens])

    def inverse(self) -> "DirichletCharacter":
        return self.power(-1)

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
        """The character mod the conductor d: its exponent at a generator g
        of (Z/d)^* is chi's at the least lift of g that is a unit mod f."""
        d = self.conductor()
        if d == self.modulus:
            return self
        f = self.modulus
        gens = []
        for g in unit_group(d)[0]:
            while gcd(g, f) != 1:
                g += d
            gens.append(self.exponents[g % f])
        return _make(d, self.order, gens)

    def is_primitive(self) -> bool:
        return self.conductor() == self.modulus

    # -- label -------------------------------------------------------------------

    def label(self) -> str:
        """CLI label f.k.e1-e2-... (the gens; f.1.0 when (Z/fZ)^* is trivial)."""
        return f"{self.modulus}.{self.order}." + ("-".join(map(str, self.gens)) or "0")

    def __repr__(self):
        return f"DirichletCharacter({self.label()})"


def enumerate_characters(f: int) -> list[DirichletCharacter]:
    """All euler_phi(f) characters mod f, ordered by generator exponent vectors
    (t_i of zeta_{n_i} at the generator of order n_i)."""
    if f < 1:
        raise DomainError("modulus must be >= 1")
    _, orders, _ = unit_group(f)
    k = lcm(*orders)
    return [_make(f, k, [t * (k // n) for t, n in zip(ts, orders)])
            for ts in product(*map(range, orders))]


def quadratic_character(p: int) -> DirichletCharacter:
    """The Legendre character mod an odd prime p: -1 at the primitive root."""
    if not is_prime(p) or p == 2:
        raise DomainError("quadratic_character needs an odd prime")
    return DirichletCharacter(p, 2, (1,))


def character_from_label(label: str) -> DirichletCharacter:
    """Parse the CLI label f.k.e1-e2-...: one exponent per generator of
    (Z/fZ)^* (a single exponent when there is none), read mod k, which must be the exact
    order.  f, k and each exponent must read back exactly as written.  Builds
    the one character the label names and accepts it when its own label gives
    the label back."""
    try:
        f_s, k_s, e_s = label.split(".")
        parts = [f_s, k_s, *e_s.split("-")]
        f, k, *exps = map(int, parts)
        if [str(n) for n in (f, k, *exps)] != parts:  # int() also reads 011, +11, ' 11', 1_1
            raise ValueError(label)
    except ValueError as exc:
        raise DomainError(f"bad character label {label!r}") from exc
    if f < 1:
        raise DomainError("modulus must be >= 1")
    _, orders, _ = unit_group(f)
    gens = exps if orders else []
    if k >= 1 and len(gens) == len(orders) and all(e * n % k == 0 for e, n in zip(gens, orders)):
        chi = _make(f, k, gens)
        if chi.label() == f"{f}.{k}." + "-".join(str(e % k) for e in exps):
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
