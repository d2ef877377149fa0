"""Exact integer arithmetic: factorization, totients, level predicates.

Everything here is a pure function on ints; results are exact.  Factorization
is trial division up to 10**6 followed by Pollard rho, with primality decided
by deterministic Miller-Rabin (valid below 2**64).  The 2**64 limit applies
to the cofactor that trial division leaves, not to n, so n of any size
factors when its part free of primes below 10**6 is below 2**64 (norms such
as 2^26 3^8 17^6 73^2 in `ideals.s2_set`); a larger cofactor is rejected.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from operator import attrgetter

_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_TRIAL_BOUND = 10 ** 6
_SIZE_LIMIT = 2 ** 64


class DomainError(ValueError):
    """Raised when an argument is outside an operation's stated domain."""


class RoughCofactorError(DomainError):
    """Raised by `factor` when trial division leaves a cofactor >= 2**64:
    `found` holds the primes it found, as {p: e}, and `cofactor` the rest."""

    def __init__(self, message: str, found: dict[int, int], cofactor: int):
        super().__init__(message)
        self.found, self.cofactor = found, cofactor


class FrozenRecordError(AttributeError):
    """Raised on assigning to or deleting an attribute of a `record` instance."""


_setattr = object.__setattr__


def _frozen_setattr(self, name, value):
    raise FrozenRecordError(f"cannot assign to field {name!r}")


def _frozen_delattr(self, name):
    raise FrozenRecordError(f"cannot delete field {name!r}")


def record(cls):
    """Make `cls` a frozen value class over its annotated fields.

    It stands in for the standard library's generator of frozen classes,
    which cost every CLI process ~15 ms: importing it loads the introspection
    and disassembly modules, and each class it makes compiles and runs
    generated source.  The fields are the class annotations in order, less
    the names in `cls._computed`, which `__post_init__` sets with
    `object.__setattr__`.  Unless `cls` defines its own, `record` installs
    `__init__` (the fields as positional arguments, in order, then
    `__post_init__` if there is one; any other call is a TypeError), `__eq__` (instances of one class only) and `__hash__`,
    both over the tuple of field values, the repr `Name(field=value, ...)`,
    and `__setattr__`/`__delattr__` that raise `FrozenRecordError`.
    `__init__` sets each field with `object.__setattr__`, which keeps
    CPython's fast attribute reads.  `cls._fields` names the fields.  A class
    with `__slots__` names its fields there and gets
    `__getstate__`/`__setstate__` over the fields, so that copy and pickle
    work."""
    computed = cls.__dict__.get("_computed", ())
    names = tuple(name for name in cls.__annotations__ if name not in computed)
    if len(names) > 1:
        key = attrgetter(*names)
    else:
        def key(self):
            return tuple(getattr(self, name) for name in names)
    post_init = getattr(cls, "__post_init__", None)

    def __init__(self, *args):
        if len(args) != len(names):
            raise TypeError(f"{cls.__qualname__}() takes {len(names)} arguments "
                            f"but {len(args)} were given")
        i = 0
        for value in args:  # indexing names is faster here than zip(names, args)
            _setattr(self, names[i], value)
            i += 1
        if post_init is not None:
            post_init(self)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __hash__(self):
        return hash(key(self))

    def __repr__(self):
        values = ", ".join(f"{name}={value!r}" for name, value in zip(names, key(self)))
        return f"{self.__class__.__qualname__}({values})"

    methods = {"__init__": __init__, "__eq__": __eq__, "__repr__": __repr__,
               "__setattr__": _frozen_setattr, "__delattr__": _frozen_delattr}
    if "__slots__" in cls.__dict__:  # copy and pickle would set slots through __setattr__
        def __getstate__(self):
            return key(self)

        def __setstate__(self, state):
            for name, value in zip(names, state):
                _setattr(self, name, value)

        methods.update(__getstate__=__getstate__, __setstate__=__setstate__)
    for name, method in methods.items():
        if name not in cls.__dict__:
            setattr(cls, name, method)
    if cls.__dict__.get("__hash__") is None:  # a class defining only __eq__ has __hash__ None
        cls.__hash__ = __hash__
    cls._fields = names
    return cls


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin, valid for n < 2**64."""
    if n < 2:
        return False
    for p in _MR_WITNESSES:
        if n % p == 0:
            return n == p
    if n >= _SIZE_LIMIT:
        raise DomainError(f"primality testing not supported for n >= 2**64 (got {n})")
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _pollard_rho(n: int) -> int:
    """A nontrivial factor of composite odd n."""
    if n % 2 == 0:
        return 2
    for c in range(1, 50):
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
    raise ArithmeticError(f"pollard rho failed on {n}")


@record
class Factorization:
    """Certified prime factorization: value == prod(p**e), primes increasing."""

    value: int
    factors: tuple[tuple[int, int], ...]

    def primes(self) -> tuple[int, ...]:
        return tuple(p for p, _ in self.factors)

    def __iter__(self):
        return iter(self.factors)


def trial_division(n: int) -> tuple[dict[int, int], int]:
    """{p: e} for the primes p < 10**6 with p^e || n that trial division finds,
    and the cofactor it leaves: 1, a prime, or a number free of primes below
    10**6.  The search stops once p^2 exceeds the cofactor."""
    if n < 1:
        raise DomainError(f"factor requires n >= 1 (got {n})")
    m = n
    found: dict[int, int] = {}
    for p in (2, 3, 5):
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
    p = 7
    while p * p <= m and p < _TRIAL_BOUND:
        while m % p == 0:
            found[p] = found.get(p, 0) + 1
            m //= p
        p += 2
    return found, m


@lru_cache(maxsize=None)
def factor(n: int) -> Factorization:
    found, m = trial_division(n)
    if m >= _SIZE_LIMIT:
        raise RoughCofactorError(
            f"factorization not supported: {n} leaves a cofactor >= 2**64 after trial division",
            found, m)
    stack = [m] if m > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            found[m] = found.get(m, 0) + 1
            continue
        d = _pollard_rho(m)
        stack.extend((d, m // d))
    factors = tuple(sorted(found.items()))
    assert math.prod(p ** e for p, e in factors) == n
    assert all(is_prime(p) for p, _ in factors)
    return Factorization(n, factors)


def prime_divisors(n: int) -> tuple[int, ...]:
    return factor(n).primes()


def valuation(n: int, p: int) -> int:
    """Largest e with p**e | n."""
    if n < 1:
        raise DomainError(f"valuation requires n >= 1 (got {n})")
    if not is_prime(p):
        raise DomainError(f"valuation requires p prime (got {p})")
    e = 0
    while n % p == 0:
        n //= p
        e += 1
    return e


def is_squarefree(n: int) -> bool:
    return all(e == 1 for _, e in factor(n))


def euler_phi(n: int) -> int:
    if n < 1:
        raise DomainError(f"euler_phi requires n >= 1 (got {n})")
    result = n
    for p in prime_divisors(n):
        result = result // p * (p - 1)
    return result


def is_p_good(N: int, p: int) -> bool:
    """N = p^2 * N' with N' squarefree, coprime to p, all primes of N' = ±1 mod p."""
    if p == 2 or not is_prime(p):
        raise DomainError(f"is_p_good requires an odd prime (got {p})")
    if N < 1:
        raise DomainError(f"is_p_good requires N >= 1 (got {N})")
    if valuation(N, p) != 2:
        return False
    Nprime = N // (p * p)
    if Nprime % p == 0 or not is_squarefree(Nprime):
        return False
    return all(q % p in (1, p - 1) for q in prime_divisors(Nprime))


def sturm_bound(N: int) -> int:
    """Weight-2 coefficient bound for Gamma0(N): ceil((N/6) * prod(1 + 1/p))."""
    if N < 1:
        raise DomainError(f"sturm_bound requires N >= 1 (got {N})")
    b = Fraction(N, 6)
    for p in prime_divisors(N):
        b *= Fraction(p + 1, p)
    return int(math.ceil(b))


def divisors(n: int) -> list[int]:
    """All positive divisors of n, ascending."""
    ds = [1]
    for p, e in factor(n):
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, x, y) with a*x + b*y = g = gcd(a, b), g >= 0."""
    x0, x1, y0, y1 = 1, 0, 0, 1
    while b:
        q, a, b = a // b, b, a % b
        x0, x1 = x1, x0 - q * x1
        y0, y1 = y1, y0 - q * y1
    if a < 0:
        return -a, -x0, -y0
    return a, x0, y0


def crt(a: int, m: int, b: int, n: int) -> int:
    """The x in [0, mn) with x = a mod m and x = b mod n, for coprime m, n."""
    return (a + m * ((b - a) * pow(m, -1, n) % n)) % (m * n)


def primes_up_to(bound: int) -> list[int]:
    """Primes <= bound by sieve."""
    if bound < 2:
        return []
    sieve = bytearray([1]) * (bound + 1)
    sieve[0] = sieve[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if sieve[i]:
            sieve[i * i :: i] = bytearray(len(sieve[i * i :: i]))
    return [i for i, v in enumerate(sieve) if v]
