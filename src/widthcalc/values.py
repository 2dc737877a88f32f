"""Exact positive values of the form  ∏ base^(rational exponent).

Width formulas for ball intersections multiply rational radii with
expressions like N^(1/q−1/p) or n^(−1/2); the results are usually
irrational but always products of integer powers with rational exponents.
`PowerProduct` keeps that form exactly, over pairwise-coprime integer bases
greater than 1, none of them a perfect power, as integer exponent
numerators over one positive denominator per value:

  * integers are split by `_factor` (trial division by the primes below
    2^10, a perfect-power check, deterministic Miller–Rabin, and
    Pollard–Brent under a fixed iteration budget), once per integer per
    process.  A base is prime whenever that bounded split succeeds; a
    cofactor it cannot split stays one base, as does a probable prime
    beyond the proven Miller–Rabin range,
  * the denominator D is kept coprime to the numerators, so it is the
    least D with value^D rational; products, quotients and powers bring
    both operands to one denominator and add or scale integers,
  * equality is exact: over pairwise-coprime bases greater than 1 a product
    ∏ b^e equals 1 only when every e is 0.  Values over proven primes
    compare their denominators and numerator maps directly; a value holding
    any other base is first refined with its partner by gcd onto one common
    coprime base (Bernstein, "Factoring into coprimes in essentially linear
    time", J. Algorithms 54, 2005),
  * ordering is decided by the sign of Σ n_b · ln b, summed with the
    integer numerators over a common denominator from cached integer
    brackets lo ≤ 2^k · ln b ≤ hi (ln b rounded outward).  k doubles until
    the sign resolves, which it always does: the logs of pairwise-coprime
    bases are linearly independent over the rationals, so a nonzero
    exponent vector never sums to zero,
  * a special zero element covers boundary cases like (N−n)^c at n = N.

Nothing here ever rounds into the stored representation.  Decimal output
calls mpmath's `libmp` functions on raw values at sig + 15 digits, rounding
to nearest, and enters no mpmath context, so neither comparing nor
rendering writes mpmath precision.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt, lcm

from mpmath.libmp import (
    dps_to_prec,
    fone,
    from_int,
    fzero,
    mpf_div,
    mpf_mul,
    mpf_pow,
    mpf_shift,
    mpi_log,
    round_ceiling,
    round_floor,
    round_nearest,
    to_int,
    to_str,
)

from .params import ParameterError

__all__ = [
    "PowerProduct",
    "INF",
    "is_inf",
    "inv_exponent",
    "decimal_str",
]

_MAX_LOG_BITS = 1 << 14
_HASH_PRIME = sys.hash_info.modulus


class _Infinity:
    """The p = ∞ endpoint of the integrability scale (1/p = 0)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "inf"


INF = _Infinity()


def is_inf(p) -> bool:
    return p is INF


def inv_exponent(p) -> Fraction:
    """1/p with 1/∞ = 0; the only arithmetic ever done on a p-index."""
    if is_inf(p):
        return Fraction(0)
    return Fraction(1) / Fraction(p)


# ---------------------------------------------------------------------------
# integer factoring

_TRIAL_BITS = 10
_SMALL_PRIMES = tuple(
    p for p in range(2, 1 << _TRIAL_BITS) if all(p % d for d in range(2, isqrt(p) + 1))
)
# Miller–Rabin on the first 13 prime bases is a proof of primality below this
# bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# Pollard–Brent work spent on one cofactor before it is kept whole, in
# iterations times the cofactor's bit length, so that a failed split costs
# about the same at any size (0.04–0.1 s for 30- to 400-digit cofactors on
# one x86 core): 2^16 iterations at 128 bits, where any prime factor below
# about 10^9 splits off with near certainty.
_RHO_WORK = 1 << 23
_RHO_BATCH = 128


def _is_probable_prime(n: int) -> bool:
    """Strong probable prime to every base in `_MR_BASES` (n odd, n > 41)."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _iroot(n: int, k: int) -> int:
    """⌊n^(1/k)⌋ for n ≥ 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


def _perfect_root(n: int) -> tuple[int, int]:
    """(r, k) with n = r^k and k maximal.

    `n` is prime or has no prime factor below 2^10, so a root r ≥ 2^10 and
    only prime k up to bit_length / 10 need a test.
    """
    k_total = 1
    found = True
    while found:
        found = False
        for k in _SMALL_PRIMES:
            if k * _TRIAL_BITS > n.bit_length():
                break
            r = _iroot(n, k)
            if r**k == n:
                n, k_total, found = r, k_total * k, True
                break
    return n, k_total


def _brent(n: int) -> int | None:
    """A proper factor of the odd composite `n`, or None once the budget is spent."""
    budget = _RHO_WORK // n.bit_length()
    c = 1
    while budget > 0:
        y, r, q, g = 2, 1, 1, 1
        while g == 1 and budget > 0:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(_RHO_BATCH, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += _RHO_BATCH
            budget -= 2 * r
            r *= 2
        if g == n:  # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if 1 < g < n:
            return g
        c += 1
    return None


def _split(m: int, mult: int, out: dict[int, int], unproven: set[int]) -> None:
    """Add m^mult to `out`; m > 1 has no prime factor below 2^10."""
    if m < 1 << 2 * _TRIAL_BITS:
        out[m] = out.get(m, 0) + mult
        return
    r, k = _perfect_root(m)
    if k > 1:
        _split(r, mult * k, out, unproven)
        return
    if _is_probable_prime(m):
        if m >= _MR_PROVEN:
            unproven.add(m)
        out[m] = out.get(m, 0) + mult
        return
    d = _brent(m)
    if d is None:
        unproven.add(m)
        out[m] = out.get(m, 0) + mult
        return
    _split(d, mult, out, unproven)
    _split(m // d, mult, out, unproven)


@lru_cache(maxsize=1 << 12)
def _factor(n: int) -> tuple[tuple[int, int, bool], ...]:
    """n ≥ 1 as (base, multiplicity, proven prime) triples, bases ascending.

    The bases are pairwise coprime and none is a perfect power.  Each is a
    proven prime unless Pollard–Brent ran out of budget on it or it is a
    probable prime at or above `_MR_PROVEN`.
    """
    out: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        out[2] = twos
        n >>= twos
    for p in _SMALL_PRIMES[1:]:
        if p * p > n:
            break
        if n % p == 0:
            # Divide by p, p², p⁴, … while exact, then by the same powers
            # downwards: O(log mult) divisions, not one per factor of p.
            powers = [p]
            while n % powers[-1] == 0:
                n //= powers[-1]
                powers.append(powers[-1] ** 2)
            mult = (1 << (len(powers) - 1)) - 1
            for i in range(len(powers) - 2, -1, -1):
                if n % powers[i] == 0:
                    n //= powers[i]
                    mult += 1 << i
            out[p] = mult
    unproven: set[int] = set()
    if n > 1:
        _split(n, 1, out, unproven)
    if unproven:  # split-off factors may share primes with a kept cofactor
        proven = out.keys() - unproven
        out = _over(out, _coprime_base(out))
        unproven = out.keys() - proven
    return tuple((b, m, b not in unproven) for b, m in sorted(out.items()))


def _coprime_base(numbers) -> set[int]:
    """Pairwise-coprime integers > 1, none a perfect power, over which each
    of `numbers` (integers > 1, none a perfect power) factors."""
    numbers = set(numbers)
    work = list(numbers)
    base: list[int] = []
    while work:
        a = work.pop()
        for i, b in enumerate(base):
            g = gcd(a, b)
            if g > 1:
                del base[i]
                work.extend(x for x in (g, a // g, b // g) if x > 1)
                break
        else:
            base.append(a)
    return {b if b in numbers else _perfect_root(b)[0] for b in base}


def _over(factors: dict, base: set[int]) -> dict:
    """`factors` ({b: e} meaning ∏ b^e) rewritten over the coprime `base`."""
    out: dict = {}
    for b, e in factors.items():
        for s in base:
            if b % s == 0:
                v = 0
                while b % s == 0:
                    b //= s
                    v += 1
                total = out.get(s, 0) + e * v
                if total:
                    out[s] = total
                else:
                    out.pop(s, None)
                if b == 1:
                    break
    return out


def _refined(a: dict[int, int], b: dict[int, int]) -> tuple[dict, dict]:
    """Both exponent maps over one common coprime base."""
    base = _coprime_base(a.keys() | b.keys())
    return _over(a, base), _over(b, base)


@lru_cache(maxsize=1 << 12)
def _factor_fraction(x: Fraction) -> tuple[tuple[tuple[int, int], ...], bool]:
    """(base, multiplicity) pairs of x > 0, negative for the denominator's
    bases, and whether a base is not proven prime."""
    num, den = _factor(x.numerator), _factor(x.denominator)
    pairs = tuple((b, m) for b, m, _ in num) + tuple((b, -m) for b, m, _ in den)
    return pairs, not all(ok for _, _, ok in num + den)


@total_ordering
class PowerProduct:
    """Exact ∏ b^(n_b / D) over pairwise-coprime bases b, or zero.

    `_factors` maps each base to its integer exponent numerator n_b ≠ 0 and
    `_den` is the value's one denominator D ≥ 1, kept canonical:
    gcd(D, every n_b) = 1, which makes D the least integer with value^D
    rational, the same on every base.  `_unproven` marks a value holding a
    base that is not a proven prime; only such values pay for gcd
    refinement in products and comparisons.
    """

    __slots__ = ("_factors", "_den", "_zero", "_unproven")

    def __init__(
        self,
        factors: dict[int, int] | None = None,
        den: int = 1,
        zero: bool = False,
        unproven: bool = False,
    ):
        """∏ b^(n / den) over `factors` ({b: n}, no zero n; the dict is kept)."""
        self._zero = zero
        self._unproven = unproven and not zero
        if zero or not factors:
            self._factors, self._den = {}, 1
            return
        g = gcd(den, *factors.values())
        if g > 1:
            factors = {p: n // g for p, n in factors.items()}
            den //= g
        self._factors, self._den = factors, den

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls) -> "PowerProduct":
        return cls()

    @classmethod
    def zero(cls) -> "PowerProduct":
        return cls(zero=True)

    @classmethod
    def from_fraction(cls, x) -> "PowerProduct":
        x = Fraction(x)
        if x == 0:
            return cls.zero()
        if x < 0:
            raise ParameterError(f"power products are nonnegative, got {x}")
        pairs, unproven = _factor_fraction(x)
        return cls(dict(pairs), unproven=unproven)

    @classmethod
    def from_pow(cls, base, exp) -> "PowerProduct":
        """base^exp with a rational (or PowerProduct) base and rational exp."""
        exp = Fraction(exp)
        if isinstance(base, PowerProduct):
            return base ** exp
        base = Fraction(base)
        if base < 0:
            raise ParameterError(f"negative base {base}")
        if base == 0:
            if exp <= 0:
                raise ParameterError("0 ** nonpositive exponent")
            return cls.zero()
        if exp == 0:
            return cls.one()
        pairs, unproven = _factor_fraction(base)
        a = exp.numerator
        return cls({p: m * a for p, m in pairs}, exp.denominator, unproven=unproven)

    # ------------------------------------------------------------------
    # predicates and conversions

    @property
    def is_zero(self) -> bool:
        return self._zero

    @property
    def is_rational(self) -> bool:
        # Bases are coprime and no perfect powers, so a fractional exponent
        # always leaves some prime with a fractional exponent.
        return self._den == 1

    def as_fraction(self) -> Fraction:
        if self._zero:
            return Fraction(0)
        if not self.is_rational:
            raise ParameterError(f"{self} is irrational")
        num = den = 1
        for p, n in self._factors.items():
            if n > 0:
                num *= p**n
            else:
                den *= p**-n
        return Fraction(num, den)

    def to_libmp(self, prec: int) -> tuple:
        """The raw libmp value at binary precision `prec`, rounded to nearest.

        Each base in ascending order contributes b^(n_b/D), its exponent
        rounded first; the products are rounded in the same order.
        """
        if self._zero:
            return fzero
        acc = fone
        for p, n in sorted(self._factors.items()):
            g = gcd(n, self._den)
            e = mpf_div(from_int(n // g, prec, round_nearest), from_int(self._den // g),
                        prec, round_nearest)
            acc = mpf_mul(acc, mpf_pow(from_int(p), e, prec, round_nearest), prec, round_nearest)
        return acc

    def decimal(self, sig: int = 12) -> str:
        """Decimal rendering to `sig` significant digits; zero is "0.0"."""
        return to_str(self.to_libmp(dps_to_prec(sig + 15)), sig, strip_zeros=False)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "PowerProduct":
        if isinstance(other, PowerProduct):
            return other
        return PowerProduct.from_fraction(other)

    def _pair(self, other: "PowerProduct") -> tuple[dict, dict]:
        """Both exponent maps, over one common coprime base."""
        if self._unproven or other._unproven:
            return _refined(self._factors, other._factors)
        return self._factors, other._factors

    def _combine(self, other: "PowerProduct", sign: int) -> tuple[dict[int, int], int]:
        """Exponent numerators of self · other^sign over the lcm D of both
        denominators, zero exponents dropped, and D."""
        mine, theirs = self._pair(other)
        den = lcm(self._den, other._den)
        a, b = den // self._den, sign * (den // other._den)
        out = {p: n * a for p, n in mine.items()}
        for p, n in theirs.items():
            s = out.get(p, 0) + n * b
            if s:
                out[p] = s
            else:
                del out[p]
        return out, den

    def __mul__(self, other) -> "PowerProduct":
        other = self._coerce(other)
        if self._zero or other._zero:
            return PowerProduct.zero()
        out, den = self._combine(other, 1)
        return PowerProduct(out, den, unproven=self._unproven or other._unproven)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerProduct":
        other = self._coerce(other)
        if other._zero:
            raise ParameterError("division by zero value")
        if self._zero:
            return PowerProduct.zero()
        out, den = self._combine(other, -1)
        return PowerProduct(out, den, unproven=self._unproven or other._unproven)

    def __pow__(self, exp) -> "PowerProduct":
        exp = Fraction(exp)
        if self._zero:
            if exp <= 0:
                raise ParameterError("0 ** nonpositive exponent")
            return PowerProduct.zero()
        if exp == 0:
            return PowerProduct.one()
        if exp == 1:
            return self
        a = exp.numerator
        return PowerProduct(
            {p: n * a for p, n in self._factors.items()},
            self._den * exp.denominator,
            unproven=self._unproven,
        )

    # ------------------------------------------------------------------
    # exact order; every value is ≥ 0, so above any negative rational

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PowerProduct, Fraction, int)):
            return NotImplemented
        if not isinstance(other, PowerProduct) and other < 0:
            return False
        other = self._coerce(other)
        if self._zero or other._zero:
            return self._zero == other._zero
        if self._den != other._den:
            return False
        mine, theirs = self._pair(other)
        return mine == theirs

    def __hash__(self) -> int:
        # A rational value hashes as its Fraction, so it is one key with an
        # equal int or Fraction.  Otherwise equal values may sit on different
        # coprime bases (p·q as one base or as two), so hash what every
        # representation agrees on: the least D with value^D rational, and
        # that rational's numerator and denominator modulo the hash prime.
        if self._den == 1:
            return hash(self.as_fraction())
        num_mod = den_mod = 1
        for p, n in self._factors.items():
            if n > 0:
                num_mod = num_mod * pow(p, n, _HASH_PRIME) % _HASH_PRIME
            else:
                den_mod = den_mod * pow(p, -n, _HASH_PRIME) % _HASH_PRIME
        return hash((self._den, num_mod, den_mod))

    def __lt__(self, other) -> bool:
        if not isinstance(other, PowerProduct) and other < 0:
            return False
        other = self._coerce(other)
        if self._zero:
            return not other._zero
        if other._zero:
            return False
        return _log_sign(self._combine(other, -1)[0]) < 0

    def __repr__(self) -> str:
        if self._zero:
            return "0"
        if self.is_rational:
            return str(self.as_fraction())
        parts = []
        for p, n in sorted(self._factors.items()):
            e = Fraction(n, self._den)
            parts.append(str(p) if e == 1 else f"{p}^({e})")
        return "*".join(parts)

    __str__ = __repr__


def decimal_str(x, sig: int = 12) -> str:
    """Signed decimal rendering of a rational, `sig` significant digits."""
    x = Fraction(x)
    prec = dps_to_prec(sig + 15)
    v = mpf_div(from_int(x.numerator, prec, round_nearest),
                from_int(x.denominator, prec, round_nearest), prec, round_nearest)
    return to_str(v, sig, strip_zeros=False)


def json_rational(x: Fraction | None) -> dict | None:
    """A rational as the JSON {"ratio": "a/b", "decimal": ...}; None stays None."""
    if x is None:
        return None
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": decimal_str(x)}


@lru_cache(maxsize=1 << 14)
def _log_bracket(b: int, k: int) -> tuple[int, int]:
    """Integers lo ≤ 2^k · ln b ≤ hi, from ln b rounded outward."""
    x = from_int(b)
    # ln b < 2^bits, so this precision leaves the bracket a few units wide.
    bits = b.bit_length().bit_length()
    lo, hi = mpi_log((x, x), k + bits + 4)
    return to_int(mpf_shift(lo, k), round_floor), to_int(mpf_shift(hi, k), round_ceiling)


def _log_sign(weights: dict[int, int]) -> int:
    """Sign of Σ w_b ln b over a pairwise-coprime base, every w_b ≠ 0.

    The sign is zero only when there are no weights.
    """
    if not weights:
        return 0
    k = 64
    while k <= _MAX_LOG_BITS:
        lo = hi = 0
        for b, w in weights.items():
            b_lo, b_hi = _log_bracket(b, k)
            if w > 0:
                lo += w * b_lo
                hi += w * b_hi
            else:
                lo += w * b_hi
                hi += w * b_lo
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        k *= 2
    # Unreachable for genuinely distinct values: the logs of pairwise-coprime
    # integers > 1 are linearly independent over Q, so the sum is nonzero.
    raise ParameterError("could not resolve sign of log-linear form")
