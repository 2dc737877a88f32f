"""Exact positive values of the form  ∏ prime^(rational exponent).

Width formulas for ball intersections multiply rational radii with
expressions like N^(1/q−1/p) or n^(−1/2); the results are usually
irrational but always products of prime powers with rational exponents.
`PowerProduct` keeps that form exactly:

  * equality is exact (two values are equal iff their exponent vectors
    match, by unique factorisation),
  * ordering is decided by the sign of Σ e_p · ln p, evaluated in interval
    arithmetic at increasing precision until the sign resolves, which it
    always does, because {ln p} are linearly independent over the
    rationals, so a nonzero exponent vector never sums to zero,
  * a special zero element covers boundary cases like (N−n)^c at n = N.

Nothing here ever rounds into the stored representation; floats appear
only in rendered output.
"""

from __future__ import annotations

from fractions import Fraction
from functools import total_ordering

import mpmath
from sympy import factorint

from .params import ParameterError

__all__ = [
    "PowerProduct",
    "INF",
    "is_inf",
    "inv_exponent",
    "decimal_str",
]

_MAX_PREC = 1 << 14


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


def _factor_fraction(x: Fraction) -> dict[int, Fraction]:
    out: dict[int, Fraction] = {}
    for prime, mult in factorint(x.numerator).items():
        out[prime] = out.get(prime, Fraction(0)) + mult
    for prime, mult in factorint(x.denominator).items():
        out[prime] = out.get(prime, Fraction(0)) - mult
    return {p: e for p, e in out.items() if e}


@total_ordering
class PowerProduct:
    """Exact ∏ p^e_p over primes p with Fraction exponents, or zero."""

    __slots__ = ("_factors", "_zero")

    def __init__(self, factors: dict[int, Fraction] | None = None, zero: bool = False):
        self._zero = zero
        self._factors = {} if zero or factors is None else dict(factors)

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
        return cls(_factor_fraction(x))

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
        return cls({p: e * exp for p, e in _factor_fraction(base).items()})

    # ------------------------------------------------------------------
    # predicates and conversions

    @property
    def is_zero(self) -> bool:
        return self._zero

    @property
    def is_rational(self) -> bool:
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
        with mpmath.workdps(sig + 15):
            acc = mpmath.mpf(1)
            for p, e in sorted(self._factors.items()):
                acc *= mpmath.power(p, mpmath.mpf(e.numerator) / e.denominator)
            return mpmath.nstr(acc, sig, strip_zeros=False)

    # ------------------------------------------------------------------
    # arithmetic

    def _coerce(self, other) -> "PowerProduct":
        if isinstance(other, PowerProduct):
            return other
        return PowerProduct.from_fraction(other)

    def __mul__(self, other) -> "PowerProduct":
        other = self._coerce(other)
        if self._zero or other._zero:
            return PowerProduct.zero()
        out = dict(self._factors)
        for p, e in other._factors.items():
            s = out.get(p, Fraction(0)) + e
            if s:
                out[p] = s
            else:
                out.pop(p, None)
        return PowerProduct(out)

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
        return PowerProduct({p: e * exp for p, e in self._factors.items()})

    # ------------------------------------------------------------------
    # exact order

    def __eq__(self, other) -> bool:
        if not isinstance(other, (PowerProduct, Fraction, int)):
            return NotImplemented
        other = self._coerce(other)
        return self._zero == other._zero and self._factors == other._factors

    def __hash__(self) -> int:
        return hash((self._zero, frozenset(self._factors.items())))

    def __lt__(self, other) -> bool:
        other = self._coerce(other)
        if self._zero:
            return not other._zero
        if other._zero:
            return False
        diff: dict[int, Fraction] = dict(self._factors)
        for p, e in other._factors.items():
            s = diff.get(p, Fraction(0)) - e
            if s:
                diff[p] = s
            else:
                diff.pop(p, None)
        return _log_sign(diff) < 0

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


def _log_sign(factors: dict[int, Fraction]) -> int:
    """Sign of Σ e_p ln p; zero only for the empty sum."""
    if not factors:
        return 0
    prec = 64
    while prec <= _MAX_PREC:
        old = mpmath.iv.prec
        mpmath.iv.prec = prec
        try:
            total = mpmath.iv.mpf(0)
            for p, e in factors.items():
                term = mpmath.iv.mpf(e.numerator) / mpmath.iv.mpf(e.denominator)
                total += term * mpmath.iv.log(mpmath.iv.mpf(p))
            if total > 0:
                return 1
            if total < 0:
                return -1
        finally:
            mpmath.iv.prec = old
        prec *= 2
    # Unreachable for genuinely distinct values: ln of distinct primes are
    # linearly independent over Q, so the sum is bounded away from zero.
    raise ParameterError("could not resolve sign of log-linear form")
