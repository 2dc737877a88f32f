"""Exact power-product values: factoring, arithmetic, ordering, rendering.

The factoring and ordering checks use oracles independent of the code under
test: a numpy sieve for primality by trial division, the earlier factoring
code kept in `_reference` for equal triples, and exact integer comparison of
both sides raised to their common exponent denominator.
Arithmetic is checked against a model with `Fraction` exponents over true
primes, the rendering of power products against mpmath's high-level
`power`/`nstr` route, and the integer rendering of rationals against the
mpmath `libmp` route it reproduces.
"""

import functools
import random
import sys
import time
from fractions import Fraction as F
from math import gcd, isqrt, lcm, prod

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

import _reference
from widthcalc import finitedim, values
from widthcalc.cli import main
from widthcalc.params import ParameterError
from widthcalc.values import (
    INF,
    PowerProduct,
    _factor,
    _is_probable_prime,
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
    assert z == 0 and z.as_fraction() == 0
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


def test_comparisons_with_negative_rationals_are_exact():
    two = PP.from_fraction(2)
    assert not two == -1
    assert two != -3
    assert not two < -1
    assert two > F(-1, 2)
    assert PP.zero() > -1 and PP.zero() >= F(-1, 3) and not PP.zero() <= -1
    assert PP.from_pow(2, F(1, 2)) != F(-1, 2)


@given(positive, st.integers(min_value=-3, max_value=3))
def test_rational_values_hash_as_their_fraction(x, k):
    v = PP.from_fraction(x) ** k
    assert hash(v) == hash(v.as_fraction()) == hash(x**k)
    assert len({v: "a", x**k: "b"}) == 1
    assert hash(PP.from_fraction(2)) == hash(2) and hash(PP.zero()) == hash(0)


def test_decimal_renders_twelve_significant_digits():
    assert PP.from_fraction(F(1, 2)).decimal(12) == "0.500000000000"
    assert decimal_str(F(1, 3)) == "0.333333333333"
    assert decimal_str(F(-5, 4)) == "-1.25000000000"


@pytest.mark.parametrize(
    "call",
    [
        lambda: PP.from_fraction(0.1),
        lambda: PP.from_pow(2, 0.5),
        lambda: PP.from_pow(0.5, 2),
        lambda: PP.from_fraction(2) ** 0.5,
        lambda: PP.from_pow(2, F(1, 2)) < 0.5,
        lambda: PP.from_pow(2, F(1, 2)) > -0.5,
        lambda: decimal_str(0.1),
        lambda: PP.from_fraction(F(1, 2)) == 0.5,
        lambda: PP.from_fraction(F(1, 2)) != 0.5,
    ],
    ids=["from_fraction", "from_pow-exponent", "from_pow-base", "pow", "lt", "gt-negative",
         "decimal_str", "eq", "ne"],
)
def test_floats_are_refused_as_exact_values(call):
    # A float is a binary approximation: taking it as its exact value would
    # turn 0.1 into 3602879701896397/36028797018963968.
    with pytest.raises(ParameterError, match="got float"):
        call()


@pytest.mark.parametrize("other", [None, "x", "1/2"])
def test_non_numbers_are_unequal_rather_than_refused(other):
    half = PP.from_fraction(F(1, 2))
    assert half.__eq__(other) is NotImplemented
    assert not half == other and half != other


def test_inf_sentinel_inverts_to_zero():
    assert is_inf(INF)
    assert inv_exponent(INF) == 0
    assert inv_exponent(F(4)) == F(1, 4)


# ---------------------------------------------------------------------------
# factoring

FACTOR_LIMIT = 10**15
# ψ_k, the least strong pseudoprime to the first k prime bases (2, 3, 5, …),
# for k = 1–12; ψ_8 = ψ_7 and ψ_10 = ψ_11 = ψ_12.
PSI = {1: 2047, 2: 1373653, 3: 25326001, 4: 3215031751, 5: 2152302898747,
       6: 3474749660383, 7: 341550071728321, 8: 341550071728321,
       9: 3825123056546413051, 10: 318665857834031151167461,
       11: 318665857834031151167461, 12: 318665857834031151167461}


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
        PSI[1],
        PSI[2],
        PSI[3],
        3215031751,  # ψ_4, a strong pseudoprime to the bases 2, 3, 5 and 7
        PSI[5],
        PSI[6],
        PSI[7],
        PSI[9],
        999999000001 * 999999000001,
        2**31 - 1,
        (2**31 - 1) * (2**61 - 1),
    ],
)
def test_factor_fixed_cases(n):
    triples = _factor(n)
    assert prod(b**m for b, m, _ in triples) == n
    assert all(proven for _, _, proven in triples)
    assert all(_prime_by_trial_division(b) for b, _, _ in triples if b < FACTOR_LIMIT)


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


def test_factor_keeps_psi_12_whole():
    # ψ_12 = 399165290221 · 798330580441: Pollard–Brent's budget at 79 bits
    # ends before either factor splits off, so the product stays one base.
    assert _factor(PSI[12]) == ((PSI[12], 1, False),)


@pytest.mark.parametrize("k", sorted(PSI))
def test_psi_k_is_no_probable_prime(k):
    assert not _is_probable_prime(PSI[k])


def _next_prime(n: int) -> int:
    """The least prime ≥ n, for 41 < n < ψ_13, by the reference test."""
    n |= 1
    while not _reference._is_probable_prime(n):
        n += 2
    return n


@pytest.mark.parametrize("psi", sorted(set(PSI.values())))
def test_primes_around_each_psi_k_are_probable_primes(psi):
    # The base count changes at ψ_5, ψ_6, ψ_7, ψ_9 and ψ_12; the primes on
    # both sides of every ψ_k pass.
    below = psi - 2  # every ψ_k is odd
    while not _reference._is_probable_prime(below):
        below -= 2
    for p in (below, _next_prime(psi)):
        assert _is_probable_prime(p)


def test_small_primes_are_the_trial_division_list():
    assert values._SMALL_PRIMES == _reference._SMALL_PRIMES


def _wide_radius_integers() -> list[int]:
    """Numerators and denominators of the first 128 finite-wide catalog
    entries' radii, drawn from [10^9, 10^12] by the benchmark's generator."""
    gen = _reference.perfbench_gen()
    out = []
    for index in range(128):
        argv = gen.entry_argv("finite-wide", index)
        for ball in argv[argv.index("--balls") + 1].split(","):
            r = F(ball.split(":")[1])
            out += [r.numerator, r.denominator]
    return out


primes_10_40 = st.integers(1 << 10, 1 << 40).map(_next_prime)


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    st.integers(1 << 20, 1 << 90),
    st.tuples(primes_10_40, primes_10_40).map(lambda pq: pq[0] * pq[1]),
    st.tuples(primes_10_40, st.integers(1, 6)).map(lambda pk: pk[0] ** pk[1]),
    st.sampled_from(_wide_radius_integers()),
))
def test_factor_gives_the_reference_triples(n):
    assert _factor.__wrapped__(n) == _reference._factor(n)


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


def _weights(plus: dict, minus: dict, d: int) -> dict[int, int]:
    """Integer weights d·(plus − minus), zero weights dropped."""
    out = {b: int(e * d) for b, e in plus.items()}
    for b, e in minus.items():
        out[b] = out.get(b, 0) - int(e * d)
    return {b: w for b, w in out.items() if w}


@settings(max_examples=300, deadline=None)
@given(exponent_maps, exponent_maps)
def test_log_sign_matches_exact_integer_comparison(plus, minus):
    d = lcm(*(e.denominator for e in [*plus.values(), *minus.values()]))
    lhs, rhs = _raised(plus, d), _raised(minus, d)
    expected = (lhs > rhs) - (lhs < rhs)
    assert _log_sign(_weights(plus, minus, d)) == expected


def test_log_sign_resolves_near_ties():
    # 2^h against 3^k for a convergent h/k of log2(3): the logs differ by
    # about 1.2e-13, below what the first 64-bit brackets can resolve with
    # weights near 10^12.  The expected sign comes from mpmath at 80 digits.
    h, k = 1193652440098, 753110839881
    with mpmath.workdps(80):
        gap = h * mpmath.log(2) - k * mpmath.log(3)
    assert abs(gap) < mpmath.mpf(2) ** -40
    expected = 1 if gap > 0 else -1
    assert _log_sign({2: h, 3: -k}) == expected
    assert _log_sign({3: k, 2: -h}) == -expected
    assert _log_sign({2: 7 * h, 3: -7 * k}) == expected
    assert _log_sign({3: 2, 2: -3}) == 1
    assert _log_sign({}) == 0


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


# ---------------------------------------------------------------------------
# the integer-numerator representation against a Fraction-exponent model

M61, M89 = 2**61 - 1, 2**89 - 1
# The prime factors of every pool entry; M61·M89 is one base to `_factor`,
# so values holding it go through gcd refinement.
MODEL_POOL = {2: {2: 1}, 3: {3: 1}, 6: {2: 1, 3: 1}, 1009: {1009: 1},
              10**12 + 39: {10**12 + 39: 1}, M61: {M61: 1}, M61 * M89: {M61: 1, M89: 1}}
model_exponent = st.fractions(min_value=F(-3), max_value=F(3), max_denominator=4)
power_exponent = st.one_of(
    st.integers(min_value=-2, max_value=2),
    st.fractions(min_value=F(-2), max_value=F(2), max_denominator=3),
)
leaves = st.lists(
    st.tuples(st.sampled_from(sorted(MODEL_POOL)), model_exponent, st.booleans()),
    min_size=1, max_size=3,
)


def _build(leaf_list, power):
    """The value ∏ base^(±e) raised to `power`, and its model: a map from
    true primes to Fraction exponents, zero exponents dropped."""
    value, model = PP.one(), {}
    for base, e, divide in leaf_list:
        term = PP.from_pow(base, e)
        value = value / term if divide else value * term
        for prime, m in MODEL_POOL[base].items():
            model[prime] = model.get(prime, 0) + (-1 if divide else 1) * m * e
    value = value**power
    return value, {b: e * power for b, e in model.items() if e * power}


def _combined(ma: dict, mb: dict, sign: int) -> dict:
    out = {k: ma.get(k, 0) + sign * mb.get(k, 0) for k in ma.keys() | mb.keys()}
    return {k: e for k, e in out.items() if e}


def _model_fraction(model: dict) -> F | None:
    if any(e.denominator != 1 for e in model.values()):
        return None
    return prod((F(b) ** int(e) for b, e in model.items()), start=F(1))


def _model_den(model: dict) -> int:
    return lcm(*(e.denominator for e in model.values()))


def _model_hash(model: dict) -> int:
    """Hash of a rational as its Fraction; otherwise of the least D with
    value^D rational and that rational modulo the hash prime."""
    ratio = _model_fraction(model)
    if ratio is not None:
        return hash(ratio)
    d = _model_den(model)
    ratio = _raised(model, d)
    modulus = sys.hash_info.modulus
    return hash((d, ratio.numerator % modulus, ratio.denominator % modulus))


def _model_value(text: str) -> dict:
    """A rendered form "b^(e)*b*…" (or a rational) read back onto true primes."""
    if "^" not in text:
        return {b: F(e) for b, e in _prime_exponents(F(text)).items()}
    out: dict = {}
    for part in text.split("*"):
        base, _, exp = part.partition("^")
        e = F(exp.strip("()")) if exp else F(1)
        assert e != 1 or not exp
        for prime, m in MODEL_POOL.get(int(base), {int(base): 1}).items():
            out[prime] = out.get(prime, 0) + m * e
    return out


def _prime_exponents(x: F) -> dict[int, int]:
    out: dict = {}
    for n, sign in ((x.numerator, 1), (x.denominator, -1)):
        for prime in (2, 3, 1009, 10**12 + 39, M61, M89):
            while n % prime == 0:
                n //= prime
                out[prime] = out.get(prime, 0) + sign
        assert n == 1
    return out


def _assert_canonical(v: PP) -> None:
    assert v._den >= 1
    assert gcd(v._den, *v._factors.values()) == 1
    assert all(isinstance(n, int) and n != 0 for n in v._factors.values())


@settings(max_examples=200, deadline=None)
@given(leaves, power_exponent, leaves, power_exponent)
def test_power_products_match_the_fraction_exponent_model(la, pa, lb, pb):
    a, ma = _build(la, pa)
    b, mb = _build(lb, pb)
    for v, m in ((a, ma), (b, mb), (a * b, _combined(ma, mb, 1)), (a / b, _combined(ma, mb, -1))):
        _assert_canonical(v)
        ratio = _model_fraction(m)
        assert v.is_rational == (ratio is not None)
        if ratio is not None:
            assert v.as_fraction() == ratio and repr(v) == str(ratio)
        assert v._den == _model_den(m)
        assert hash(v) == _model_hash(m)
        assert _model_value(repr(v)) == m
    d = lcm(_model_den(ma), _model_den(mb))
    lhs, rhs = _raised(ma, d), _raised(mb, d)
    assert (a == b) == (lhs == rhs) == (ma == mb)
    assert (a < b) == (lhs < rhs) and (b < a) == (rhs < lhs)
    if a == b:
        assert hash(a) == hash(b)


@settings(max_examples=200, deadline=None)
@given(leaves, power_exponent)
def test_approx_floor_ceil_are_the_exact_floor_and_ceiling(la, pa):
    # Checked on value^D, a rational: lo^D ≤ value^D < (lo + 1)^D.  The
    # ceiling is derived from the floor by one exact comparison, and
    # `finitedim` clamps it to at least 1.
    v, model = _build(la, pa)
    lo = v.approx_floor()
    d = _model_den(model)
    exact = _raised(model, d)
    assert lo**d <= exact < (lo + 1) ** d
    assert finitedim._int_floor(v) == lo
    assert finitedim._int_ceil(v) == max(lo if exact == lo**d else lo + 1, 1)


def test_proven_prime_forms_print_fraction_exponents():
    v = PP.from_pow(2, F(-3, 4)) * PP.from_pow(1009, F(2, 3)) * PP.from_fraction(9)
    assert repr(v) == "2^(-3/4)*3^(2)*1009^(2/3)"
    assert (v._den, v._factors) == (12, {2: -9, 3: 24, 1009: 8})
    assert repr(PP.from_pow(6, F(1, 2)) ** 2) == "6"


# ---------------------------------------------------------------------------
# rendering pinned to mpmath's high-level functions


def _reference_to_mpf(v: PP, prec: int):
    """Each base's power and the running product through mpmath.power and
    mpf arithmetic at binary precision `prec`, bases ascending."""
    if v == 0:
        return mpmath.mpf(0)
    with mpmath.workprec(prec):
        acc = mpmath.mpf(1)
        for p, n in sorted(v._factors.items()):
            e = F(n, v._den)
            acc *= mpmath.power(p, mpmath.mpf(e.numerator) / e.denominator)
        return acc


def _reference_decimal(v: PP, sig: int) -> str:
    return mpmath.nstr(
        _reference_to_mpf(v, libmp.dps_to_prec(sig + 15)), sig, strip_zeros=False
    )


def _reference_decimal_str(x, sig: int) -> str:
    """The mpmath route `decimal_str` reproduces on integers: numerator and
    denominator rounded to nearest at dps_to_prec(sig + 15) bits, divided
    at that precision, and printed by `to_str`."""
    x = F(x)
    prec = libmp.dps_to_prec(sig + 15)
    v = libmp.mpf_div(
        libmp.from_int(x.numerator, prec, libmp.round_nearest),
        libmp.from_int(x.denominator, prec, libmp.round_nearest),
        prec,
        libmp.round_nearest,
    )
    return libmp.to_str(v, sig, strip_zeros=False)


PINNED_RATIONALS = [
    F(0), F(1), F(7), F(-5, 4), F(1, 3), F(10**12), F(10**13 + 1), F(3, 10**7),
    F(-7, 10**9), F(10**12 + 39, 999999999989), F(999999999989, 10**12 + 39),
    F(4 * 10**11 + 1, 7 * 10**9 + 3), F(1, BIG_P * BIG_Q), F(BIG_P, BIG_Q),
    F(2**200 + 1, 3**90),
]
PINNED_VALUES = [
    PP.zero(), PP.one(), PP.from_fraction(F(10**12)), PP.from_pow(2, F(-33, 2)),
    PP.from_pow(2, F(-33, 2)) * PP.from_fraction(F(1, 5**10)),
    PP.from_pow(10**12 + 39, F(3, 2)), PP.from_pow(F(999999999989, 10**12 + 39), F(-7, 3)),
    PP.from_pow(2, F(-1, 2)) / PP.from_fraction(BIG_P * BIG_Q),
    PP.from_pow(BIG_P * BIG_Q, F(1, 3)), PP.from_pow(M61 * M89, F(-5, 6)),
    PP.from_fraction(F(3, 10**7)), PP.from_pow(7, F(50, 3)),
    # stored bases out of order: rendering must still multiply in ascending order
    PP.from_pow(1009, F(2, 3)) * PP.from_pow(3, F(-1, 2)) * PP.from_pow(2, F(1, 5)),
    PP.from_pow(10**12 + 39, F(-1, 7)) * PP.from_pow(7, F(3, 5)) * PP.from_pow(5, F(1, 3)),
]


@pytest.mark.parametrize("sig", [12, 5, 20])
def test_rendering_matches_mpmath_reference(sig):
    saved = mpmath.mp.prec
    try:
        mpmath.mp.prec = 11
        for x in PINNED_RATIONALS:
            assert decimal_str(x, sig) == _reference_decimal_str(x, sig), x
            if x >= 0:
                v = PP.from_fraction(x)
                assert v.decimal(sig) == _reference_decimal(v, sig), x
        for v in PINNED_VALUES:
            assert v.decimal(sig) == _reference_decimal(v, sig), v
            for prec in (32, 64, 160):
                assert v.to_libmp(prec) == _reference_to_mpf(v, prec)._mpf_, (v, prec)
        assert mpmath.mp.prec == 11
    finally:
        mpmath.mp.prec = saved
    assert "e-" in PP.from_fraction(F(3, 10**7)).decimal(12)
    assert "e+" in PP.from_pow(7, F(50, 3)).decimal(12)


@settings(max_examples=200, deadline=None)
@given(leaves, power_exponent, st.fractions(min_value=F(-10**13), max_value=F(10**13)))
def test_rendering_matches_mpmath_reference_on_random_values(la, pa, x):
    v, _ = _build(la, pa)
    assert v.decimal(12) == _reference_decimal(v, 12)
    assert decimal_str(x) == _reference_decimal_str(x, 12)


# A tie at 12 digits, 1234567890125 · 10^16, less one: 94 bits, so rounding
# the numerator to 93 bits half to even lands on the tie and the text rounds
# up, where truncating it or rounding the rational exactly rounds down.
_TIE_LESS_ONE = 12345678901250000000000000000 - 1

# Ties at the last digit over 2^a · 5^b, numerators over 93 bits, and
# magnitudes on both sides of 2^±3500, where `to_str` changes method.
_ties = st.builds(
    lambda m, a, b: F(10 * m + 5, 2**a * 5**b),
    st.integers(0, 10**30),
    st.integers(0, 90),
    st.integers(0, 90),
)
_wide = st.builds(F, st.integers(1, 2**400), st.integers(1, 2**400))
_scaled = st.builds(
    lambda m, e: m * F(2) ** e, st.integers(1, 2**120), st.integers(-3600, 3600)
)


@settings(max_examples=400, deadline=None)
@given(st.one_of(_ties, _wide, _scaled), st.integers(1, 30), st.booleans())
@example(F(0), 12, False)
@example(F(9876543121, 80000000000), 12, False)
@example(F(9876543121, 80000000000), 12, True)
@example(F(5, 2**40), 12, False)
@example(F(123456789012345, 5**30), 30, True)
@example(F(_TIE_LESS_ONE), 12, False)
@example(F(_TIE_LESS_ONE), 12, True)
@example(F(_TIE_LESS_ONE, 10**20), 12, False)
@example(F(2**93 + 1, 3), 12, False)
@example(F(2**400 - 1, 2**399 + 1), 20, False)
@example(F(3, 2**3498), 12, False)
@example(F(1, 2**3500), 12, True)
@example(F(1, 2**3502), 12, False)
@example(F(1, 3**2210), 12, False)
@example(F(2**3499 + 1), 12, False)
@example(F(2**3500), 1, True)
@example(F(7**1250, 3), 30, False)
def test_decimal_str_matches_the_mpmath_route(x, sig, negative):
    if negative:
        x = -x
    assert decimal_str(x, sig) == _reference_decimal_str(x, sig)


def test_decimal_str_refuses_fewer_than_one_digit():
    with pytest.raises(ValueError, match="sig must be at least 1"):
        decimal_str(F(1, 3), 0)
