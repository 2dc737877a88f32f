"""Exact positive values of the form  ∏ base^(rational exponent).

Width formulas for ball intersections multiply rational radii with
expressions like N^(1/q−1/p) or n^(−1/2); the results are usually
irrational but always products of integer powers with rational exponents.
`PowerProduct` keeps that form exactly, over pairwise-coprime integer bases
greater than 1, none of them a perfect power:

  * integers are split by `_factor` (trial division by the primes below
    2^10, a perfect-power check, deterministic Miller–Rabin, and
    Pollard–Brent under a fixed iteration budget), once per integer per
    process.  A base is prime whenever that bounded split succeeds; a
    cofactor it cannot split stays one base, as does a probable prime
    beyond the proven Miller–Rabin range,
  * equality is exact: over pairwise-coprime bases greater than 1 a product
    ∏ b^e equals 1 only when every e is 0.  Values over proven primes
    compare their exponent maps directly; a value holding any other base is
    first refined with its partner by gcd onto one common coprime base
    (Bernstein, "Factoring into coprimes in essentially linear time",
    J. Algorithms 54, 2005),
  * ordering is decided by the sign of Σ e_b · ln b, summed with integer
    weights over the common exponent denominator from cached integer
    brackets lo ≤ 2^k · ln b ≤ hi (ln b rounded outward).  k doubles until
    the sign resolves, which it always does: the logs of pairwise-coprime
    bases are linearly independent over the rationals, so a nonzero
    exponent vector never sums to zero,
  * a special zero element covers boundary cases like (N−n)^c at n = N.

Nothing here ever rounds into the stored representation; floats appear
only in rendered output, and comparing values writes no mpmath precision.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt, lcm

import mpmath
from mpmath.libmp import from_int, mpf_shift, mpi_log, round_ceiling, round_floor, to_int

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


def _refined(a: dict[int, Fraction], b: dict[int, Fraction]) -> tuple[dict, dict]:
    """Both exponent maps over one common coprime base."""
    base = _coprime_base(a.keys() | b.keys())
    return _over(a, base), _over(b, base)


@lru_cache(maxsize=1 << 12)
def _factor_fraction(x: Fraction) -> tuple[tuple[tuple[int, Fraction], ...], bool]:
    """(base, exponent) pairs of x > 0, and whether a base is not proven prime."""
    pairs = [(b, Fraction(m)) for b, m, _ in _factor(x.numerator)]
    pairs += [(b, Fraction(-m)) for b, m, _ in _factor(x.denominator)]
    proven = all(ok for _, _, ok in _factor(x.numerator) + _factor(x.denominator))
    return tuple(pairs), not proven


@total_ordering
class PowerProduct:
    """Exact ∏ b^e_b over pairwise-coprime bases b with Fraction exponents, or zero.

    `_unproven` marks a value holding a base that is not a proven prime;
    only such values pay for gcd refinement in products and comparisons.
    """

    __slots__ = ("_factors", "_zero", "_unproven")

    def __init__(
        self,
        factors: dict[int, Fraction] | None = None,
        zero: bool = False,
        unproven: bool = False,
    ):
        self._zero = zero
        self._factors = {} if zero or factors is None else dict(factors)
        self._unproven = unproven and not zero

    # ------------------------------------------------------------------
    # constructors

    @classmethod
    def one(cls) -> "PowerProduct":
        return cls({})

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
        return cls({p: e * exp for p, e in pairs}, unproven=unproven)

    # ------------------------------------------------------------------
    # predicates and conversions

    @property
    def is_zero(self) -> bool:
        return self._zero

    @property
    def is_rational(self) -> bool:
        # Bases are coprime and no perfect powers, so a fractional exponent
        # always leaves some prime with a fractional exponent.
        return self._zero or all(e.denominator == 1 for e in self._factors.values())

    def as_fraction(self) -> Fraction:
        if self._zero:
            return Fraction(0)
        if not self.is_rational:
            raise ParameterError(f"{self} is irrational")
        out = Fraction(1)
        for p, e in self._factors.items():
            out *= Fraction(p) ** int(e)
        return out

    def __float__(self) -> float:
        return float(self.to_mpf(64))

    def to_mpf(self, prec: int = 128):
        """mpmath approximation at binary precision `prec` (display only)."""
        if self._zero:
            return mpmath.mpf(0)
        with mpmath.workprec(prec):
            acc = mpmath.mpf(1)
            for p, e in sorted(self._factors.items()):
                acc *= mpmath.power(p, mpmath.mpf(e.numerator) / e.denominator)
            return acc

    def decimal(self, sig: int = 12) -> str:
        """Decimal rendering to `sig` significant digits."""
        if self._zero:
            return "0"
        return mpmath.nstr(self.to_mpf(mpmath.libmp.dps_to_prec(sig + 15)), sig, strip_zeros=False)

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

    def __mul__(self, other) -> "PowerProduct":
        other = self._coerce(other)
        if self._zero or other._zero:
            return PowerProduct.zero()
        mine, theirs = self._pair(other)
        out = dict(mine)
        for p, e in theirs.items():
            s = out.get(p)
            if s is None:
                out[p] = e
            elif s + e:
                out[p] = s + e
            else:
                del out[p]
        return PowerProduct(out, unproven=self._unproven or other._unproven)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "PowerProduct":
        other = self._coerce(other)
        if other._zero:
            raise ParameterError("division by zero value")
        if self._zero:
            return PowerProduct.zero()
        return self * (other ** Fraction(-1))

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
        return PowerProduct(
            {p: e * exp for p, e in self._factors.items()}, unproven=self._unproven
        )

    # ------------------------------------------------------------------
    # exact order

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PowerProduct, Fraction, int)):
            return NotImplemented
        other = self._coerce(other)
        if self._zero or other._zero:
            return self._zero == other._zero
        mine, theirs = self._pair(other)
        return mine == theirs

    def __hash__(self) -> int:
        # Equal values may sit on different coprime bases (p·q as one base or
        # as two), so hash what every representation agrees on: the least
        # D with value^D rational, and that rational's numerator and
        # denominator modulo the hash prime.
        if self._zero:
            return hash(0)
        den = lcm(*(e.denominator for e in self._factors.values()))
        num_mod = den_mod = 1
        for p, e in self._factors.items():
            w = e.numerator * (den // e.denominator)
            if w > 0:
                num_mod = num_mod * pow(p, w, _HASH_PRIME) % _HASH_PRIME
            else:
                den_mod = den_mod * pow(p, -w, _HASH_PRIME) % _HASH_PRIME
        return hash((den, num_mod, den_mod))

    def __lt__(self, other) -> bool:
        other = self._coerce(other)
        if self._zero:
            return not other._zero
        if other._zero:
            return False
        return _log_sign(*self._pair(other)) < 0

    def __repr__(self) -> str:
        if self._zero:
            return "0"
        if not self._factors:
            return "1"
        if self.is_rational:
            return str(self.as_fraction())
        parts = []
        for p, e in sorted(self._factors.items()):
            parts.append(str(p) if e == 1 else f"{p}^({e})")
        return "*".join(parts)

    __str__ = __repr__


def decimal_str(x, sig: int = 12) -> str:
    """Signed decimal rendering of a rational, `sig` significant digits."""
    x = Fraction(x)
    with mpmath.workdps(sig + 15):
        v = mpmath.mpf(x.numerator) / mpmath.mpf(x.denominator)
        return mpmath.nstr(v, sig, strip_zeros=False)


@lru_cache(maxsize=1 << 14)
def _log_bracket(b: int, k: int) -> tuple[int, int]:
    """Integers lo ≤ 2^k · ln b ≤ hi, from ln b rounded outward."""
    x = from_int(b)
    # ln b < 2^bits, so this precision leaves the bracket a few units wide.
    bits = b.bit_length().bit_length()
    lo, hi = mpi_log((x, x), k + bits + 4)
    return to_int(mpf_shift(lo, k), round_floor), to_int(mpf_shift(hi, k), round_ceiling)


def _log_sign(plus: dict[int, Fraction], minus: dict[int, Fraction]) -> int:
    """Sign of Σ e_b ln b over `plus` minus the same sum over `minus`.

    Both maps sit on one pairwise-coprime base, so the sign is zero only
    when the maps are equal.
    """
    den = lcm(*(e.denominator for e in plus.values()), *(e.denominator for e in minus.values()))
    weights = {b: e.numerator * (den // e.denominator) for b, e in plus.items()}
    for b, e in minus.items():
        weights[b] = weights.get(b, 0) - e.numerator * (den // e.denominator)
    weights = [(b, w) for b, w in weights.items() if w]
    if not weights:
        return 0
    k = 64
    while k <= _MAX_LOG_BITS:
        lo = hi = 0
        for b, w in weights:
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
