import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from eiscong.arith import (DomainError, crt, divisors, euler_phi, factor, is_p_good,
                           is_prime, primes_up_to, sturm_bound, valuation)


def test_factor_examples():
    assert factor(234).factors == ((2, 1), (3, 2), (13, 1))
    assert factor(725).factors == ((5, 2), (29, 1))
    assert factor(121).factors == ((11, 2),)
    assert factor(1).factors == ()
    with pytest.raises(DomainError):
        factor(0)


def test_factor_above_2_64_with_a_small_cofactor():
    """The 2**64 limit is on the cofactor left after trial division to
    10**6, where Miller-Rabin stops being proven, not on n."""
    assert factor(2 ** 70 * 3).factors == ((2, 70), (3, 1))
    norm = 2 ** 26 * 3 ** 8 * 17 ** 6 * 73 ** 2  # a B2 norm of ideals.s2_set at level 289
    assert norm >= 2 ** 64 and factor(norm).factors == ((2, 26), (3, 8), (17, 6), (73, 2))
    mersenne = 2 ** 61 - 1
    assert factor(2 ** 10 * mersenne).factors == ((2, 10), (mersenne, 1))
    for rough in (2 ** 64 + 13, 7 * (2 ** 64 + 13), mersenne * mersenne):
        with pytest.raises(DomainError, match="cofactor >= 2\\*\\*64"):
            factor(rough)


def test_factor_dense_and_samples():
    for n in range(1, 100_000, 7):
        fac = factor(n)
        prod = 1
        for p, e in fac:
            assert is_prime(p)
            prod *= p ** e
        assert prod == n
    rng = random.Random(0)
    for _ in range(300):
        n = rng.randrange(10 ** 5, 10 ** 6)
        fac = factor(n)
        assert all(is_prime(p) for p, _ in fac)
        prod = 1
        for p, e in fac:
            prod *= p ** e
        assert prod == n


def test_valuation():
    assert valuation(234, 3) == 2
    assert valuation(234, 13) == 1
    assert valuation(121, 5) == 0
    rng = random.Random(1)
    for _ in range(200):
        n = rng.randrange(1, 10 ** 6)
        p = rng.choice([2, 3, 5, 7, 11, 13])
        v = valuation(n, p)
        assert n % p ** v == 0 and n % p ** (v + 1) != 0


def test_euler_phi_brute_force():
    assert euler_phi(11) == 10
    assert euler_phi(1) == 1
    assert euler_phi(29) == 28
    from math import gcd

    for n in range(1, 2001):
        assert euler_phi(n) == sum(1 for a in range(1, n + 1) if gcd(a, n) == 1)


def test_is_p_good():
    assert is_p_good(121, 11)
    assert is_p_good(725, 5)
    # 9N is 3-good for squarefree N coprime to 3 (11 = -1 mod 3)
    assert is_p_good(99, 3)
    assert not is_p_good(10, 3)
    assert not is_p_good(121, 5)
    assert not is_p_good(9 * 49, 3)  # 49 not squarefree
    with pytest.raises(DomainError):
        is_p_good(121, 2)
    with pytest.raises(DomainError):
        is_p_good(121, 15)


def test_is_p_good_brute_force():
    for p in (3, 5, 7, 11):
        for q in primes_up_to(499):
            expected = q != p and q % p in (1, p - 1)
            assert is_p_good(p * p * q, p) == expected


def test_sturm_bound():
    assert sturm_bound(121) == 22
    assert sturm_bound(11) == 2
    assert sturm_bound(234) == 84
    assert sturm_bound(725) == 150


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.integers(1, 60), st.integers(1, 60), st.integers(-500, 500), st.integers(-500, 500))
def test_crt_matches_brute_force(m, n, a, b):
    assume(gcd(m, n) == 1)
    want = next(x for x in range(m * n) if (x - a) % m == 0 and (x - b) % n == 0)
    assert crt(a, m, b, n) == want
