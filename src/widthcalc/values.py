"""Exact positive values of the form  ∏ base^(rational exponent).

Width formulas for ball intersections multiply rational radii with
expressions like N^(1/q−1/p) or n^(−1/2); the results are usually
irrational but always products of integer powers with rational exponents.
`PowerProduct` keeps that form exactly, over pairwise-coprime integer bases
greater than 1, none of them a perfect power, as integer exponent
numerators over one positive denominator per value:

  * integers are split by `_factor`, once per integer per process: one gcd
    with the product of the odd primes below 2^10 names the small primes
    that divide n, which are then divided out; a perfect-power check;
    Miller–Rabin on as few prime bases as prove primality at n's size (5
    below 2.15·10^12, all 13 near 3.3·10^24); and Pollard–Brent under a
    fixed iteration budget.  A base is prime whenever that bounded split
    succeeds; a cofactor it cannot split stays one base, as does a
    probable prime beyond the proven Miller–Rabin range,
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

Nothing here ever rounds into the stored representation.  A rational is
rendered in integers (`decimal_str`), by the steps of mpmath's `to_str` at
sig + 15 digits, so its text is mpmath's to the byte.  Power products and
the log brackets call mpmath's `libmp` functions on raw values,
rounding to nearest, and enter no mpmath context, so neither comparing nor
rendering writes mpmath precision.  This is the one module that names
mpmath, and it imports it inside the functions that call it, so a process
that renders only rationals between 2^−3500 and 2^3500 in size and
compares no irrational values never loads it.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from functools import lru_cache, total_ordering
from math import gcd, isqrt, lcm, log, prod

from .params import ParameterError, as_fraction

__all__ = [
    "PowerProduct",
    "INF",
    "is_inf",
    "inv_exponent",
    "decimal_str",
]

_MAX_LOG_BITS = 1 << 14
_HASH_PRIME = sys.hash_info.modulus
# mpmath's bits per decimal digit in `dps_to_prec` and log2(10) in `to_str`,
# the floats those functions use, and the |log2 x| above which `to_str`
# finds the decimal exponent with mpmath logarithms.
_BITS_PER_DIGIT = 3.3219280948873626
_LOG2_10 = log(10, 2)
_TO_STR_LOG2_LIMIT = 3500


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


def _rational(x) -> int | Fraction:
    """x itself when it is an int or a Fraction, else `as_fraction(x)`, which
    refuses a float or any other inexact value with `ParameterError`."""
    return x if isinstance(x, (int, Fraction)) else as_fraction(x)


def inv_exponent(p) -> Fraction:
    """1/p with 1/∞ = 0; the only arithmetic ever done on a p-index."""
    if is_inf(p):
        return Fraction(0)
    return Fraction(p.denominator, p.numerator)


# ---------------------------------------------------------------------------
# integer factoring


def _primes_below(n: int) -> tuple[int, ...]:
    """The primes below n ≥ 2, by the sieve of Eratosthenes."""
    flags = bytearray([1]) * n
    flags[:2] = b"\0\0"
    for p in range(2, isqrt(n - 1) + 1):
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, n, p)))
    return tuple(i for i, flag in enumerate(flags) if flag)


_TRIAL_BITS = 10
_SMALL_PRIMES = _primes_below(1 << _TRIAL_BITS)
_ODD_SMALL_PRODUCT = prod(_SMALL_PRIMES[1:])
# Miller–Rabin on the first 13 prime bases is a proof of primality below this
# bound (Sorenson & Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981
# (ψ_k, the first k bases): ψ_k is the least strong pseudoprime to the first k
# prime bases, so those k prove primality below it (Jaeschke, "On strong
# pseudoprimes to several bases", Math. Comp. 61, 1993; Jiang & Deng, "Strong
# pseudoprimes to the first eight prime bases", Math. Comp. 83, 2014; Sorenson
# & Webster).  ψ_8 = ψ_7 and ψ_10 = ψ_11 = ψ_12, so 8, 10 and 11 bases are
# never the fewest.
_MR_STEPS = tuple((psi, _MR_BASES[:k]) for psi, k in (
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
))
# Pollard–Brent work spent on one cofactor before it is kept whole, in
# iterations times the cofactor's bit length, so that a failed split costs
# about the same at any size (0.04–0.1 s for 30- to 400-digit cofactors on
# one x86 core): 2^16 iterations at 128 bits, where any prime factor below
# about 10^9 splits off with near certainty.
_RHO_WORK = 1 << 23
_RHO_BATCH = 128


def _is_probable_prime(n: int) -> bool:
    """Strong probable prime to the first bases of `_MR_BASES` (n odd, n > 41).

    It runs the fewest of them that prove primality at n's size (`_MR_STEPS`)
    and all 13 from ψ_12 on, so the answer is exact below `_MR_PROVEN`.
    """
    bases = _MR_BASES
    for psi, first in _MR_STEPS:
        if n < psi:
            bases = first
            break
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in bases:
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
    # g is the product of the odd primes below 2^10 that divide n and are
    # not yet divided out, so the scan stops once g is 1.
    g = gcd(n, _ODD_SMALL_PRODUCT)
    for p in _SMALL_PRIMES[1:]:
        if g == 1 or p * p > n:
            break
        if g % p == 0:
            g //= p
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
def _factor_fraction(num: int, den: int) -> tuple[tuple[tuple[int, int], ...], bool]:
    """(base, multiplicity) pairs of num/den > 0 in lowest terms, negative
    for the denominator's bases, and whether a base is not proven prime."""
    num, den = _factor(num), _factor(den)
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
        x = _rational(x)
        if not x:
            return cls.zero()
        if x.numerator < 0:
            raise ParameterError(f"power products are nonnegative, got {x}")
        pairs, unproven = _factor_fraction(x.numerator, x.denominator)
        return cls(dict(pairs), unproven=unproven)

    @classmethod
    def from_pow(cls, base, exp) -> "PowerProduct":
        """base^exp with a rational (or PowerProduct) base and rational exp."""
        exp = _rational(exp)
        if isinstance(base, PowerProduct):
            return base ** exp
        base = _rational(base)
        if base.numerator < 0:
            raise ParameterError(f"negative base {base}")
        if not base:
            if exp <= 0:
                raise ParameterError("0 ** nonpositive exponent")
            return cls.zero()
        if not exp:
            return cls.one()
        pairs, unproven = _factor_fraction(base.numerator, base.denominator)
        a = exp.numerator
        return cls({p: m * a for p, m in pairs}, exp.denominator, unproven=unproven)

    # ------------------------------------------------------------------
    # predicates and conversions

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
        rounded first (`_root_power`, cached per base, exponent and
        precision); the products are rounded in the same order.
        """
        from mpmath import libmp

        if self._zero:
            return libmp.fzero
        acc = libmp.fone
        for p, n in sorted(self._factors.items()):
            g = gcd(n, self._den)
            power = _root_power(p, n // g, self._den // g, prec)
            acc = libmp.mpf_mul(acc, power, prec, libmp.round_nearest)
        return acc

    def decimal(self, sig: int = 12) -> str:
        """Decimal rendering to `sig` significant digits; zero is "0.0"."""
        from mpmath import libmp

        return libmp.to_str(self.to_libmp(libmp.dps_to_prec(sig + 15)), sig, strip_zeros=False)

    def approx_floor_ceil(self) -> tuple[int, int]:
        """⌊·⌋ and ⌈·⌉ of the value rounded to about 96 bits past the binary
        point, however large it is, so that exact correction steps after
        it take one or two turns."""
        from mpmath import libmp

        # The value's integer bits ⌊log2⌋ + 1, or one more where the brackets'
        # slack crosses an integer: hi ≥ 2^64 · D · ln value takes each base's
        # upper bracket for n > 0 and its lower one for n < 0, and the lower
        # bracket of ln 2 is ≤ 2^64 · ln 2.
        hi = sum(n * _log_bracket(p, 64)[n > 0] for p, n in self._factors.items())
        top = hi // (self._den * _log_bracket(2, 64)[0]) + 1
        approx = self.to_libmp(96 + max(0, top))
        return libmp.to_int(approx, libmp.round_floor), libmp.to_int(approx, libmp.round_ceiling)

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
        exp = _rational(exp)
        if self._zero:
            if exp <= 0:
                raise ParameterError("0 ** nonpositive exponent")
            return PowerProduct.zero()
        if not exp:
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
        if not isinstance(other, (PowerProduct, Fraction, int, float)):
            return NotImplemented
        if not isinstance(other, PowerProduct) and _rational(other) < 0:
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
        if not isinstance(other, PowerProduct) and _rational(other) < 0:
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
            g = gcd(n, self._den)
            e = f"{n // g}" if g == self._den else f"{n // g}/{self._den // g}"
            parts.append(str(p) if n == self._den else f"{p}^({e})")
        return "*".join(parts)

    __str__ = __repr__


def _round_even(man: int, sticky: bool, prec: int) -> tuple[int, int]:
    """(m, k) with m · 2^k the integer `man` rounded to `prec` bits, half to
    even; `sticky` marks a nonzero remainder below man's last bit."""
    k = man.bit_length() - prec
    if k <= 0:
        return man, 0
    t = man >> (k - 1)
    if t & 1 and (t & 2 or sticky or man & ((1 << (k - 1)) - 1)):
        return (t >> 1) + 1, k
    return t >> 1, k


def decimal_str(x, sig: int = 12) -> str:
    """Signed decimal rendering of a rational, `sig` ≥ 1 significant digits.

    The text is that of mpmath's `to_str` on num/den at
    dps_to_prec(sig + 15) bits, made by the same steps on integers: the
    numerator and the denominator are each rounded to that many bits and
    their quotient is rounded again, half to even each time; the quotient's
    digits are truncated to about sig + 3 places, that digit string is
    rounded half up at `sig`, and the result is laid out in fixed point for
    decimal exponents in (min(−⌊sig/3⌋, −5), sig), else with an exponent.
    Only a value whose binary exponent lies beyond ±3500 goes to `to_str`
    itself, which there finds the decimal exponent with mpmath logarithms.
    """
    if sig < 1:
        raise ValueError(f"sig must be at least 1, got {sig}")
    x = _rational(x)
    negative = x.numerator < 0
    if not x.numerator:
        return "0.0"
    prec = round((sig + 16) * _BITS_PER_DIGIT)
    num, num_shift = _round_even(abs(x.numerator), False, prec)
    den, den_shift = _round_even(x.denominator, False, prec)
    # At least prec + 2 quotient bits, so the remainder only breaks ties.
    extra = prec + 2 - num.bit_length() + den.bit_length()
    q, r = divmod(num << extra, den)
    man, man_shift = _round_even(q, r != 0, prec)
    exp = num_shift - den_shift - extra + man_shift  # |x| rounds to man · 2^exp
    top = exp + man.bit_length()  # 2^(top − 1) ≤ man · 2^exp < 2^top
    if abs(top) > _TO_STR_LOG2_LIMIT:
        from mpmath import libmp

        zeros = (man & -man).bit_length() - 1
        raw = (int(negative), man >> zeros, exp + zeros, man.bit_length() - zeros)
        return libmp.to_str(raw, sig, strip_zeros=False)
    sign = "-" if negative else ""
    # Fixed-point digits of man · 2^exp, each step truncating, as in to_str.
    fix_bits = max(int((sig + 3) * _LOG2_10) + 10 - top, 0)
    fix_digits = int(fix_bits / _LOG2_10 + 0.5)
    shift = exp + fix_bits
    fixed = man << shift if shift >= 0 else man >> -shift
    digits = str(fixed * 10**fix_digits >> fix_bits)
    point = len(digits) - fix_digits - 1  # decimal exponent of the leading digit
    if len(digits) > sig and digits[sig] >= "5":
        digits = str(int(digits[:sig]) + 1)
        if len(digits) > sig:  # 99…9 carried into a new leading digit
            digits, point = digits[:sig], point + 1
    else:
        digits = digits[:sig]
    if min(-(sig // 3), -5) < point < sig:
        if point < 0:
            return f"{sign}0.{'0' * (-point - 1)}{digits}"
        return f"{sign}{digits[:point + 1]}.{digits[point + 1:]}"
    return f"{sign}{digits[0]}.{digits[1:]}e{point:+d}"


@lru_cache(maxsize=1 << 10)
def _root_power(b: int, n: int, den: int, prec: int) -> tuple:
    """The raw libmp value b^(n/den) for n/den in lowest terms, at binary
    precision `prec`, its exponent rounded to nearest first and then the
    power."""
    from mpmath import libmp

    nearest = libmp.round_nearest
    e = libmp.mpf_div(libmp.from_int(n, prec, nearest), libmp.from_int(den), prec, nearest)
    return libmp.mpf_pow(libmp.from_int(b), e, prec, nearest)


@lru_cache(maxsize=1 << 14)
def _log_bracket(b: int, k: int) -> tuple[int, int]:
    """Integers lo ≤ 2^k · ln b ≤ hi, from ln b rounded outward."""
    from mpmath import libmp

    x = libmp.from_int(b)
    # ln b < 2^bits, so this precision leaves the bracket a few units wide.
    bits = b.bit_length().bit_length()
    lo, hi = libmp.mpi_log((x, x), k + bits + 4)
    return (libmp.to_int(libmp.mpf_shift(lo, k), libmp.round_floor),
            libmp.to_int(libmp.mpf_shift(hi, k), libmp.round_ceiling))


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
