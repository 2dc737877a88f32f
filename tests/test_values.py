"""Exact power-product values: factoring, arithmetic, ordering, rendering.

The factoring and ordering checks use oracles independent of the code under
test: a numpy sieve for primality by trial division, and exact integer
comparison of both sides raised to their common exponent denominator.
"""

import functools
import random
import time
from fractions import Fraction as F
from math import isqrt, lcm, prod

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcalc.cli import main
from widthcalc.params import ParameterError
from widthcalc.values import (
    INF,
    PowerProduct,
    _factor,
    _log_sign,
    decimal_str,
    inv_exponent,
    is_inf,
)

PP = PowerProduct

positive = st.fractions(min_value=F(1, 24), max_value=F(60), max_denominator=24)


def test_rational_round_trip():
    v = PP.from_fraction(F(6, 35))
    assert v.is_rational and v.as_fraction() == F(6, 35)
    assert str(v) == "6/35"


def test_powers_collapse_to_rationals_when_exponents_clear():
    assert PP.from_pow(16, F(-1, 2)) == PP.from_fraction(F(1, 4))
    assert PP.from_pow(8, F(1, 3)) == PP.from_fraction(F(2))
    assert PP.from_pow(12, F(1, 2)) == PP.from_fraction(2) * PP.from_pow(3, F(1, 2))


def test_zero_element_behaviour():
    z = PP.zero()
    assert z.is_zero and z.as_fraction() == 0
    assert z * PP.from_fraction(F(7)) == z
    assert z < PP.from_fraction(F(1, 1000))
    with pytest.raises(ParameterError):
        PP.from_fraction(F(1)) / z


def test_exact_ordering_of_close_irrationals():
    root2 = PP.from_pow(2, F(1, 2))
    cbrt3 = PP.from_pow(3, F(1, 3))
    assert root2 < cbrt3
    assert not cbrt3 < root2
    assert root2 != cbrt3


@given(positive, positive)
def test_ordering_matches_fractions(a, b):
    assert (PP.from_fraction(a) < PP.from_fraction(b)) == (a < b)
    assert (PP.from_fraction(a) == PP.from_fraction(b)) == (a == b)


@given(positive, positive)
def test_multiplication_and_division_are_exact(a, b):
    pa, pb = PP.from_fraction(a), PP.from_fraction(b)
    assert (pa * pb).as_fraction() == a * b
    assert (pa / pb).as_fraction() == a / b


@given(positive, st.fractions(min_value=F(-3), max_value=F(3), max_denominator=6))
def test_power_law_exponent_addition(base, e):
    v = PP.from_fraction(base)
    assert (v**e) * (v ** (1 - e)) == v


def test_decimal_renders_twelve_significant_digits():
    assert PP.from_fraction(F(1, 2)).decimal(12) == "0.500000000000"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(-5, 4)) == "-1.25000000000"


def test_inf_sentinel_inverts_to_zero():
    assert is_inf(INF)
    assert inv_exponent(INF) == 0
    assert inv_exponent(F(4)) == F(1, 4)


# ---------------------------------------------------------------------------
# factoring

FACTOR_LIMIT = 10**15


@functools.cache
def _sieve_primes() -> np.ndarray:
    """Every prime up to √FACTOR_LIMIT, by the sieve of Eratosthenes."""
    limit = isqrt(FACTOR_LIMIT)
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = False
    return np.flatnonzero(flags).astype(np.int64)


def _prime_by_trial_division(f: int) -> bool:
    """f < FACTOR_LIMIT is prime: no prime up to √f divides it."""
    primes = _sieve_primes()
    primes = primes[: np.searchsorted(primes, isqrt(f), side="right")]
    return f > 1 and not np.any(np.int64(f) % primes == 0)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=FACTOR_LIMIT - 1))
def test_factor_multiplies_back_to_primes(n):
    triples = _factor(n)
    assert prod(b**m for b, m, _ in triples) == n
    bases = [b for b, _, _ in triples]
    assert bases == sorted(set(bases))
    for b, m, proven in triples:
        assert m >= 1 and proven
        assert _prime_by_trial_division(b), b


@pytest.mark.parametrize(
    "n",
    [
        1,
        2,
        1 << 49,
        561,
        1105,
        1729,
        41041,
        825265,
        321197185,
        3215031751,  # a strong pseudoprime to the bases 2, 3, 5 and 7
        999999000001 * 999999000001,
        2**31 - 1,
        (2**31 - 1) * (2**61 - 1),
    ],
)
def test_factor_fixed_cases(n):
    triples = _factor(n)
    assert prod(b**m for b, m, _ in triples) == n
    assert all(proven for _, _, proven in triples)


@pytest.mark.parametrize("p", [10**12 + 39, 10**13 + 37, 10**14 + 31])
@pytest.mark.parametrize("k", [2, 3])
def test_factor_finds_powers_of_large_primes(p, k):
    assert _prime_by_trial_division(p)
    assert _factor(p**k) == ((p, k, True),)
    assert _factor(7 * p**k) == ((7, 1, True), (p, k, True))


def test_factor_keeps_an_unsplit_cofactor_whole():
    m61, m89 = 2**61 - 1, 2**89 - 1
    assert _factor(m61 * m89) == ((m61 * m89, 1, False),)
    assert _factor(12 * (m61 * m89) ** 2) == ((2, 2, True), (3, 1, True), (m61 * m89, 2, False))


def test_factor_strips_a_high_small_prime_power_quickly():
    n = 5 * 3**100000
    start = time.perf_counter()
    triples = _factor.__wrapped__(n)  # uncached
    elapsed = time.perf_counter() - start
    assert triples == ((3, 100000, True), (5, 1, True))
    assert elapsed < 1.0


# ---------------------------------------------------------------------------
# exact order from integer log brackets

# Pairwise coprime, with one composite base (19 · 23).
COPRIME_POOL = [2, 3, 5, 7, 11, 13, 1009, 10**12 + 39, 19 * 23]
small_exponent = st.fractions(min_value=F(-4), max_value=F(4), max_denominator=6)
exponent_maps = st.dictionaries(st.sampled_from(COPRIME_POOL), small_exponent, max_size=4)


def _raised(factors: dict, d: int) -> F:
    """∏ b^(e·d) as an exact rational; e·d must be an integer."""
    return prod((F(b) ** int(e * d) for b, e in factors.items()), start=F(1))


@settings(max_examples=300, deadline=None)
@given(exponent_maps, exponent_maps)
def test_log_sign_matches_exact_integer_comparison(plus, minus):
    d = lcm(*(e.denominator for e in [*plus.values(), *minus.values()]))
    lhs, rhs = _raised(plus, d), _raised(minus, d)
    expected = (lhs > rhs) - (lhs < rhs)
    assert _log_sign(plus, minus) == expected


def test_log_sign_resolves_near_ties():
    # 2^h against 3^k for a convergent h/k of log2(3): the logs differ by
    # about 1.2e-13, below what the first 64-bit brackets can resolve with
    # weights near 10^12.  The expected sign comes from mpmath at 80 digits.
    h, k = 1193652440098, 753110839881
    with mpmath.workdps(80):
        gap = h * mpmath.log(2) - k * mpmath.log(3)
    assert abs(gap) < mpmath.mpf(2) ** -40
    expected = 1 if gap > 0 else -1
    assert _log_sign({2: F(h)}, {3: F(k)}) == expected
    assert _log_sign({3: F(k)}, {2: F(h)}) == -expected
    assert _log_sign({2: F(h, 7)}, {3: F(k, 7)}) == expected
    assert _log_sign({3: F(1, 3)}, {2: F(1, 2)}) == 1
    assert _log_sign({6: F(1, 2)}, {6: F(1, 2)}) == 0


def test_comparisons_leave_mpmath_precision_alone():
    saved = mpmath.mp.prec, mpmath.iv.prec
    try:
        mpmath.mp.prec, mpmath.iv.prec = 11, 13
        root2, cbrt3 = PP.from_pow(2, F(1, 2)), PP.from_pow(3, F(1, 3))
        assert root2 < cbrt3 and not cbrt3 < root2 and root2 != cbrt3
        assert PP.from_pow(1024, F(1, 10)) * PP.from_pow(2, F(-1)) == PP.one()
        assert (mpmath.mp.prec, mpmath.iv.prec) == (11, 13)
    finally:
        mpmath.mp.prec, mpmath.iv.prec = saved


# ---------------------------------------------------------------------------
# radii whose factors the bounded split cannot find


def _strong_probable_prime(n: int, rng: random.Random) -> bool:
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for _ in range(20):
        x = pow(rng.randrange(2, n - 1), d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _next_prime(n: int) -> int:
    rng = random.Random(n)
    while not _strong_probable_prime(n, rng):
        n += 1
    return n


BIG_P = _next_prime(4 * 10**24 + 1)
BIG_Q = _next_prime(9 * 10**26 + 1)


def test_hard_radius_answers_quickly(capsys):
    assert len(str(BIG_P)) >= 25 and len(str(BIG_Q)) >= 25
    argv = ["finite", "--N", "64", "--n", "16", "--q", "3",
            "--balls", f"2:1/{BIG_P * BIG_Q},inf:1", "--format", "json"]
    start = time.perf_counter()
    code = main(argv)
    elapsed = time.perf_counter() - start
    assert 0 <= code <= 3
    assert elapsed < 2.0
    assert str(BIG_P * BIG_Q) in capsys.readouterr().out


def test_unsplit_cofactors_refine_to_exact_equality():
    whole = PP.from_fraction(BIG_P * BIG_Q)
    apart = PP.from_fraction(BIG_P) * PP.from_fraction(BIG_Q)
    assert whole == apart and hash(whole) == hash(apart)
    cube_root = PP.from_pow(BIG_P * BIG_Q, F(1, 3))
    split_root = PP.from_pow(BIG_P, F(1, 3)) * PP.from_pow(BIG_Q, F(1, 3))
    assert cube_root == split_root and hash(cube_root) == hash(split_root)
    assert not cube_root < split_root and not split_root < cube_root
    assert split_root < cube_root * PP.from_fraction(F(10**9 + 1, 10**9))
    assert (whole / PP.from_fraction(BIG_Q)) == PP.from_fraction(BIG_P)
    assert (cube_root / PP.from_pow(BIG_Q, F(1, 3))) ** 3 == PP.from_fraction(BIG_P)
    assert PP.from_pow(BIG_P**2, F(1, 2)).is_rational
    assert PP.from_pow(BIG_P**2, F(1, 2)).as_fraction() == BIG_P
