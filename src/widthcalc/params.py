"""Problem parameters and the exact arithmetic they share.

A smoothness/integrability specification is a triple (r̄, p̄, q) with

    r̄ = (r_1, ..., r_d),   r_j > 0        directional smoothness orders,
    p̄ = (p_1, ..., p_d),   1 < p_j < ∞    directional integrability,
    q,                      1 < q < ∞     target integrability.

Everything downstream is driven by a handful of exact quantities:

    <ā>           = d / (1/a_1 + ... + 1/a_d)       harmonic mean,
    ā ∘ b̄         = (a_1 b_1, ..., a_d b_d)          coordinatewise product,
    <r̄>/d + 1/q − <r̄>/<p̄ ∘ r̄>                        compactness margin.

All arithmetic is exact: sums and comparisons run on integers over one
common denominator.  A value handed out is a `fractions.Fraction`, or, on
the spec's integer scale and in the piece tables, an integer numerator
over a stated denominator.  `over_one_denominator` is the one helper that
puts given rationals over the lcm of their denominators: φ/ψ scale their
point with it, `finitedim.IntersectionSpec` its x̄, 1/q and 1/2, and the
oracle's checks their points and dual weights.  Nothing in this module
rounds.

Index conventions: coordinates are 0-based everywhere in code.  Rendered
output (CLI, reports) prints 1-based names like ``p1`` to match the flag
names, and that is purely presentation.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from typing import Sequence

__all__ = [
    "ParameterError",
    "RangeError",
    "ProblemSpec",
    "PieceRow",
    "piece_rows",
    "as_fraction",
    "over_one_denominator",
]

#: Hard cap on the number of coordinates.  The closed forms are cheap at any
#: d, but the cross-term pieces are quadratic in d and the grid oracle's
#: branch and bound over a d-simplex lattice grows with d, so keep d honest.
MAX_DIMENSION = 16


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


def over_one_denominator(values) -> tuple[int, list[int]]:
    """(E, [a_k]) with a_k/E = values[k] for the exact rationals `values`,
    E the lcm of their denominators."""
    E = lcm(*(v.denominator for v in values))
    return E, [v.numerator * (E // v.denominator) for v in values]


@dataclass(frozen=True)
class ProblemSpec:
    """An exact (r̄, p̄, q) triple with validated domains.

    Construction also puts 1/p̄, 1/q and 1/2 on one integer scale, once,
    and keeps it on the instance with the sums that every order estimate is
    keyed by:

        D         the lcm of 2, the numerator of q and the numerators of
                  the products p_j r_j
        X         (X_1, ..., X_d),  X_j = D/p_j
        Q         D/q  (and D/2 = D // 2 needs no field)
        total     D·Σ_j 1/r_j  = D·d/<r̄>
        mixed     D·Σ_j 1/(p_j r_j)  = D·d/<p̄ ∘ r̄>

    all integers.  Every regime screen is a comparison of X_j with Q and
    D/2, <r̄>/d = D/total, the compactness margin is
    ((D − mixed)·D + Q·total)/(total·D) and the regularity sum
    M_j = Σ_i (1/r_i)(1/p_i − 1/p_j) is (mixed·D − X_j·total)/D².
    `compact_margin` builds the margin as a `Fraction` when called, and
    `reg_sums` builds the sums on first read.  `rate_rows(high)` is the
    `piece_rows(X, Q, D, high)` table in the low or the high shape, scaled
    to integers over one denominator and built on first use; φ/ψ and the
    epigraph LP read it.  `closedform.classify_regime` keeps its report on
    the instance in the same way.  None of this takes part in ==, hash,
    repr or str: two specs with the same (r̄, p̄, q) are equal whatever they
    hold.
    """

    r: tuple[Fraction, ...]
    p: tuple[Fraction, ...]
    q: Fraction

    def __init__(self, r, p, q):
        object.__setattr__(self, "r", tuple(as_fraction(x) for x in r))
        object.__setattr__(self, "p", tuple(as_fraction(x) for x in p))
        object.__setattr__(self, "q", as_fraction(q))
        self._validate()
        # Over D, the lcm of 2, q's numerator and the numerators of p_j r_j,
        # each of 1/r_j, 1/p_j = X_j/D, (1/r_j)(1/p_j), 1/q = Q/D and 1/2 is
        # an integer numerator; the sums run on those integers.
        rn = [v.numerator for v in self.r]
        rd = [v.denominator for v in self.r]
        pn = [v.numerator for v in self.p]
        pd = [v.denominator for v in self.p]
        D = lcm(2, self.q.numerator, *(a * b for a, b in zip(rn, pn)))
        total = sum(b * (D // a) for a, b in zip(rn, rd))  # d/<r̄>, times D
        mixed = sum(  # d/<p̄ ∘ r̄>, times D
            b1 * b2 * (D // (a1 * a2)) for a1, b1, a2, b2 in zip(rn, rd, pn, pd)
        )
        # Frozen: the derived values go straight into the instance dict.
        self.__dict__.update(
            D=D,
            X=tuple(b * (D // a) for a, b in zip(pn, pd)),
            Q=self.q.denominator * (D // self.q.numerator),
            total=total,
            mixed=mixed,
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
        # Denominators are positive: a > 0 iff its numerator is, and a > 1
        # iff its numerator exceeds its denominator.
        for j, rj in enumerate(self.r):
            if rj.numerator <= 0:
                raise ParameterError(f"r{j + 1} = {rj} must be > 0")
        for j, pj in enumerate(self.p):
            if pj.numerator <= pj.denominator:
                raise ParameterError(f"p{j + 1} = {pj} must be > 1 (and finite)")
        if self.q.numerator <= self.q.denominator:
            raise ParameterError(f"q = {self.q} must be > 1 (and finite)")

    @property
    def d(self) -> int:
        return len(self.r)

    @cached_property
    def reg_sums(self) -> tuple[Fraction, ...]:
        """(M_1, ..., M_d), M_j = Σ_i (1/r_i)(1/p_i − 1/p_j) = mixed·D − X_j·total
        over D²."""
        D = self.D
        return tuple(Fraction(self.mixed * D - X_j * self.total, D * D) for X_j in self.X)

    def compact_margin(self) -> Fraction:
        """<r̄>/d + 1/q − <r̄>/<p̄ ∘ r̄>, the exact compactness margin.

        ≥ 0 means the class embeds boundedly into L_q; > 0 is the strict
        margin required by every order estimate in this package.
        """
        # = (D − mixed)/total + Q/D.
        D, total = self.D, self.total
        return Fraction((D - self.mixed) * D + self.Q * total, total * D)

    def rate_rows(self, high: bool) -> tuple[int, tuple[RateRow, ...]]:
        """`piece_rows(X, Q, D, high)` as (L, rows), built on first use per
        shape: each row is ((family, indices), L times the coefficients
        (w_1 r_1, …, w_d r_d, t_coeff, logn_coeff) of that piece), all
        integers, in `piece_rows` order, and L is the least denominator
        that makes every coefficient an integer.

        φ and ψ read a row at (t_1, …, t_d, t, log n), as the block rate
        Σ w_i r_i t_i + t_coeff·t + logn_coeff·log n.  The epigraph LP of
        `exponent.build_objective` reads it at (α_1, …, α_d, s, 1) with
        s = Σ α_j, so s = 1 when q ≤ 2.
        """
        table = self._rows.get(high)
        if table is None:
            d = self.d
            rn = [v.numerator for v in self.r]
            rd = [v.denominator for v in self.r]
            pieces = []  # (tag, [(column, numerator, denominator)]), in lowest terms
            for family, idx, den, weights, t_coeff, logn_coeff, _ in piece_rows(
                self.X, self.Q, self.D, high
            ):
                terms = []
                for i, w in zip(idx, weights):
                    if w == den:  # weight 1: the coefficient is r_i, in lowest terms
                        terms.append((i, rn[i], rd[i]))
                        continue
                    a, b = w * rn[i], den * rd[i]
                    g = gcd(a, b)
                    terms.append((i, a // g, b // g))
                for j, a in ((d, t_coeff), (d + 1, logn_coeff)):
                    if a:
                        g = gcd(a, den)
                        terms.append((j, a // g, den // g))
                pieces.append(((family, idx), terms))
            L = lcm(*(b for _, terms in pieces for _, _, b in terms))
            rows = []
            for tag, terms in pieces:
                row = [0] * (d + 2)
                for j, a, b in terms:
                    row[j] = a * (L // b)
                rows.append((tag, tuple(row)))
            table = self._rows[high] = (L, tuple(rows))
        return table

    def __str__(self) -> str:
        rs = ",".join(str(x) for x in self.r)
        ps = ",".join(str(x) for x in self.p)
        return f"ProblemSpec(r=({rs}), p=({ps}), q={self.q})"


#: One affine piece: (family, indices, den, weights, t_coeff, logn_coeff,
#: n_power), each coefficient an integer numerator over the row's den > 0.
PieceRow = tuple[str, tuple[int, ...], int, tuple[int, ...], int, int, int]

#: A piece of `ProblemSpec.rate_rows`: ((family, indices), coefficients).
RateRow = tuple[tuple[str, tuple[int, ...]], tuple[int, ...]]


def piece_rows(X: Sequence[int], Q: int, D: int, high: bool) -> list[PieceRow]:
    """The five piece families of every width order, as one table of rows.

    x_j = X[j]/D = 1/p_j (0 for a p = ∞ ball), x_q = Q/D = 1/q and 1/2 =
    H/D with H = D/2, all on one integer scale: D is even and positive.
    θ_q = 1/2 − x_q, and `high` selects the q > 2 shape, which is refused
    (`ParameterError`) when q ≤ 2.  A row carries a coordinate term
    Σ w_i r_i t_i over its indices plus the listed coefficients:

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

    Everything runs on the integers X_j, Q and H, and no `Fraction` is
    built but for the text of a refusal: a row is (family, indices, den,
    weights, t_coeff, logn_coeff, n_power), each coefficient an integer
    numerator over the row's den, which need not be in lowest terms.  den
    is D for the single-index rows except mid-p, where it is 2θ_q·D =
    D − 2Q, and 2(X_j − X_i) for a pair (i, j).

    The consumers read the rows as they stand, the first three through
    `ProblemSpec.rate_rows` (as integers over one denominator):

      exponent.build_objective  Σ w_i r_i α_i + t_coeff·s + logn_coeff with
                                s = Σ α_j, in the shape of q (s = 1 when
                                q ≤ 2);
      finitedim.phi_value       Σ w_i r_i t_i + t_coeff·t, low shape at any q;
      finitedim.psi_value       the same plus logn_coeff·log n, high shape;
      IntersectionSpec.terms    Π ν_i^(w_i) · N^(n_power) · g^(2·logn_coeff),
                                g = n^(−1/2) N^(1/q), in the shape of q.
    """
    H = D // 2
    if high and Q >= H:
        raise ParameterError(
            f"the high (q > 2) piece rows need 1/q < 1/2, got 1/q = {Fraction(Q, D)}"
        )
    idx = range(len(X))
    unit = (D,)
    rows = [("large-p", (j,), D, unit, 0, 0, Q - X[j]) for j in idx if X[j] <= Q]
    if high:
        two_theta_q = D - 2 * Q  # c_j/2 = (X_j − Q)/(D − 2Q)
        rows += [
            ("mid-p", (j,), two_theta_q, (two_theta_q,), Q - X[j], X[j] - Q, 0)
            for j in idx
            if Q <= X[j] <= H
        ]
        rows += [("small-p", (j,), D, unit, -X[j], H, 0) for j in idx if X[j] >= H]
    else:
        rows += [("small-p", (j,), D, unit, Q - X[j], 0, 0) for j in idx if X[j] >= Q]
    rows += _cross_rows("cross-lambda", X, Q, 0)
    if high:
        rows += _cross_rows("cross-mu", X, H, 1)
    return rows


def _cross_rows(family, X, level, half) -> list[PieceRow]:
    """Pairs X_i < level < X_j, weighted (X_j − level, level − X_i)/(X_j − X_i),
    with t_coeff = −half/2 and logn_coeff = half/2, all over 2(X_j − X_i)."""
    below = [i for i, v in enumerate(X) if v < level]
    above = [j for j, v in enumerate(X) if v > level]
    rows = []
    for i in below:
        for j in above:
            span = X[j] - X[i]
            weights = (2 * (X[j] - level), 2 * (level - X[i]))
            rows.append((family, (i, j), 2 * span, weights, -half * span, half * span, 0))
    return rows
