"""Problem parameters and the exact arithmetic they share.

A smoothness/integrability specification is a triple (r̄, p̄, q) with

    r̄ = (r_1, ..., r_d),   r_j > 0        directional smoothness orders,
    p̄ = (p_1, ..., p_d),   1 < p_j < ∞    directional integrability,
    q,                      1 < q < ∞     target integrability.

Everything downstream is driven by a handful of exact quantities:

    <ā>           = d / (1/a_1 + ... + 1/a_d)       harmonic mean,
    ā ∘ b̄         = (a_1 b_1, ..., a_d b_d)          coordinatewise product,
    <r̄>/d + 1/q − <r̄>/<p̄ ∘ r̄>                        compactness margin.

All arithmetic is over `fractions.Fraction`; nothing in this module rounds.

Index conventions: coordinates are 0-based everywhere in code.  Rendered
output (CLI, reports) prints 1-based names like ``p1`` to match the flag
names, and that is purely presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "ParameterError",
    "RangeError",
    "ProblemSpec",
    "PieceRow",
    "harmonic_mean",
    "piece_rows",
    "as_fraction",
]

#: Hard cap on the number of coordinates.  The closed forms are cheap at any
#: d, but the cross-term pieces are quadratic in d and the grid oracle's
#: branch and bound over a d-simplex lattice grows with d, so keep d honest.
MAX_DIMENSION = 16

_ZERO = Fraction(0)
_ONE = Fraction(1)


class ParameterError(ValueError):
    """A parameter lies outside its mathematical domain."""


class RangeError(ParameterError):
    """A structurally valid parameter violates a range precondition."""


def as_fraction(x) -> Fraction:
    """Coerce `x` to an exact Fraction.

    Accepts Fraction, int, or a string like "3/4" or "2".  Floats are
    rejected on purpose: a float argument is almost always a silent loss
    of exactness at the call site.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParameterError(f"not an exact rational: {x!r}") from exc
    raise ParameterError(
        f"expected an exact rational (Fraction, int, or 'a/b' string), got {type(x).__name__}"
    )


def harmonic_mean(values: Iterable[Fraction]) -> Fraction:
    """Harmonic mean <ā> = d / Σ 1/a_j of positive rationals."""
    vals = [as_fraction(v) for v in values]
    if not vals:
        raise ParameterError("harmonic mean of an empty tuple")
    for v in vals:
        if v <= 0:
            raise ParameterError(f"harmonic mean needs positive entries, got {v}")
    return Fraction(len(vals)) / sum(Fraction(1) / v for v in vals)


@dataclass(frozen=True)
class ProblemSpec:
    """An exact (r̄, p̄, q) triple with validated domains.

    Construction also derives, once, the exact quantities that every order
    estimate is keyed by, and keeps them on the instance:

        x         (1/p_1, ..., 1/p_d)
        inv_r     (1/r_1, ..., 1/r_d)
        x_q       1/q
        reg_sums  (M_1, ..., M_d),  M_j = Σ_i (1/r_i)(1/p_i − 1/p_j)

    together with <r̄>, <p̄ ∘ r̄> and the compactness margin, which
    `r_mean`, `pr_mean` and `compact_margin` return.  `rows(high)` is the
    `piece_rows` table at (x̄, 1/q) in the low or the high shape, built as
    a tuple on first use.  None of this takes part in ==, hash, repr or
    str: two specs with the same (r̄, p̄, q) are equal whatever they hold.
    """

    r: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    q: Fraction

    def __init__(self, r, p, q):
        object.__setattr__(self, "r", tuple(as_fraction(x) for x in r))
        object.__setattr__(self, "p", tuple(as_fraction(x) for x in p))
        object.__setattr__(self, "q", as_fraction(q))
        self._validate()
        inv_r = tuple(_ONE / rj for rj in self.r)
        x = tuple(_ONE / pj for pj in self.p)
        x_q = _ONE / self.q
        total = sum(inv_r, _ZERO)  # d / <r̄>
        mixed = sum((a * b for a, b in zip(inv_r, x)), _ZERO)  # d / <p̄ ∘ r̄>
        # Frozen: the derived values go straight into the instance dict.
        self.__dict__.update(
            x=x,
            inv_r=inv_r,
            x_q=x_q,
            reg_sums=tuple(mixed - xj * total for xj in x),
            _r_mean=len(x) / total,
            _pr_mean=len(x) / mixed,
            # <r̄>/d = 1/total and <r̄>/<p̄ ∘ r̄> = mixed/total.
            _margin=(_ONE - mixed) / total + x_q,
            _rows={},
        )

    def _validate(self) -> None:
        d = len(self.r)
        if d < 2:
            raise ParameterError(f"need at least 2 coordinates, got {d}")
        if d > MAX_DIMENSION:
            raise RangeError(f"d = {d} exceeds the supported maximum {MAX_DIMENSION}")
        if len(self.p) != d:
            raise ParameterError(f"|p| = {len(self.p)} does not match |r| = {d}")
        for j, rj in enumerate(self.r):
            if rj <= 0:
                raise ParameterError(f"r{j + 1} = {rj} must be > 0")
        for j, pj in enumerate(self.p):
            if pj <= 1:
                raise ParameterError(f"p{j + 1} = {pj} must be > 1 (and finite)")
        if self.q <= 1:
            raise ParameterError(f"q = {self.q} must be > 1 (and finite)")

    @property
    def d(self) -> int:
        return len(self.r)

    def r_mean(self) -> Fraction:
        """Harmonic mean <r̄> of the smoothness orders."""
        return self._r_mean

    def pr_mean(self) -> Fraction:
        """Harmonic mean <p̄ ∘ r̄> of the coordinatewise products p_j r_j."""
        return self._pr_mean

    def compact_margin(self) -> Fraction:
        """<r̄>/d + 1/q − <r̄>/<p̄ ∘ r̄>, the exact compactness margin.

        ≥ 0 means the class embeds boundedly into L_q; > 0 is the strict
        margin required by every order estimate in this package.
        """
        return self._margin

    def rows(self, high: bool) -> tuple[PieceRow, ...]:
        """`piece_rows(x̄, 1/q, high)` as a tuple, built on first use per shape."""
        rows = self._rows.get(high)
        if rows is None:
            rows = self._rows[high] = tuple(piece_rows(self.x, self.x_q, high))
        return rows

    def permuted(self, order: tuple[int, ...]) -> "ProblemSpec":
        """The same spec with coordinates reordered by `order`."""
        if sorted(order) != list(range(self.d)):
            raise ParameterError(f"not a permutation of 0..{self.d - 1}: {order}")
        return ProblemSpec(
            r=tuple(self.r[i] for i in order),
            p=tuple(self.p[i] for i in order),
            q=self.q,
        )

    def __str__(self) -> str:
        rs = ",".join(str(x) for x in self.r)
        ps = ",".join(str(x) for x in self.p)
        return f"ProblemSpec(r=({rs}), p=({ps}), q={self.q})"


_HALF = Fraction(1, 2)
_UNIT = (Fraction(1),)

#: One affine piece: (family, indices, weights, t_coeff, logn_coeff, n_power).
PieceRow = tuple[str, tuple[int, ...], tuple[Fraction, ...], Fraction, Fraction, Fraction]


def piece_rows(x: Sequence[Fraction], x_q: Fraction, high: bool) -> list[PieceRow]:
    """The five piece families of every width order, as one table of rows.

    x[j] = 1/p_j (0 for a p = ∞ ball), x_q = 1/q and θ_q = 1/2 − x_q;
    `high` selects the q > 2 shape, which is refused (`ParameterError`)
    when q ≤ 2.  A row carries a coordinate term Σ w_i r_i t_i over its
    indices plus the listed coefficients:

      family          switched on by        weights   t_coeff    logn_coeff  n_power
      large-p         x_j ≤ x_q             1         0          0           x_q − x_j
      mid-p  (high)   x_q ≤ x_j ≤ 1/2       1         −c_j/2     c_j/2       0
      small-p (low)   x_j ≥ x_q             1         x_q − x_j  0           0
      small-p (high)  x_j ≥ 1/2             1         −x_j       1/2         0
      cross-lambda    x_i < x_q < x_j       1−λ, λ    0          0           0
      cross-mu (high) x_i < 1/2 < x_j       1−μ, μ    −1/2       1/2         0

    with c_j = (x_j − x_q)/θ_q and the weights fixed by (1−λ)x_i + λx_j = x_q
    and (1−μ)x_i + μx_j = 1/2, so 0 < λ, μ < 1.  Rows come family by family
    in the order above, j ascending, pairs (i, j) lexicographic.  Single
    thresholds are closed, so a coordinate with x_j = x_q (or x_j = 1/2 in
    the high shape) has a row in both neighbouring families.

    The consumers read the rows as they stand:

      exponent.build_objective  coefficients w_i r_i on α_i; q > 2: s slope
                                t_coeff and constant logn_coeff; q ≤ 2:
                                constant t_coeff (there s = 1);
      finitedim.phi_value       Σ w_i r_i t_i + t_coeff·t, low shape at any q;
      finitedim.psi_value       the same plus logn_coeff·log n, high shape;
      finitedim._terms          Π ν_i^(w_i) · N^(n_power) · g^(2·logn_coeff),
                                g = n^(−1/2) N^(1/q), in the shape of q.
    """
    if high and x_q >= _HALF:
        raise ParameterError(f"the high (q > 2) piece rows need 1/q < 1/2, got 1/q = {x_q}")
    idx = range(len(x))
    rows = [("large-p", (j,), _UNIT, _ZERO, _ZERO, x_q - x[j]) for j in idx if x[j] <= x_q]
    if high:
        two_theta_q = 1 - 2 * x_q
        for j in idx:
            if x_q <= x[j] <= _HALF:
                half_c = (x[j] - x_q) / two_theta_q
                rows.append(("mid-p", (j,), _UNIT, -half_c, half_c, _ZERO))
        rows += [("small-p", (j,), _UNIT, -x[j], _HALF, _ZERO) for j in idx if x[j] >= _HALF]
    else:
        rows += [("small-p", (j,), _UNIT, x_q - x[j], _ZERO, _ZERO) for j in idx if x[j] >= x_q]
    rows += _cross_rows("cross-lambda", x, x_q, _ZERO, _ZERO)
    if high:
        rows += _cross_rows("cross-mu", x, _HALF, -_HALF, _HALF)
    return rows


def _cross_rows(family, x, level, t_coeff, logn_coeff) -> list[PieceRow]:
    below = [i for i, xi in enumerate(x) if xi < level]
    above = [j for j, xj in enumerate(x) if xj > level]
    rows = []
    for i in below:
        for j in above:
            w = (level - x[i]) / (x[j] - x[i])
            rows.append((family, (i, j), (1 - w, w), t_coeff, logn_coeff, _ZERO))
    return rows
