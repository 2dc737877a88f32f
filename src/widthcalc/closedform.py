"""Closed-form width exponents and total regime classification.

For a spec (r̄, p̄, q) write

    margin  =  <r̄>/d + 1/q − <r̄>/<p̄ ∘ r̄>          (compactness margin)
    M_j     =  Σ_i (1/r_i)(1/p_i − 1/p_j)           (regularity sums)

The class embeds boundedly into L_q iff margin ≥ 0.  It embeds compactly
iff margin > 0, except that when every p_k ≤ q a failed regularity sum
(M_j ≥ 1 for some j) already forces a non-compact embedding; that screen
is labelled ``T3-noncompact``.

When the embedding is compact the widths decay like n^(−θ) and θ has a
closed form in the regimes below (θ1 = <r̄>/d throughout):

    T1.1   all p_j ≥ q                    θ = θ1          (no regularity needed)
    T1.2a  q ≤ 2, all p_j ≤ q            θ = margin
    T1.2b  q ≤ 2, p̄ straddles q          θ = min{θ1, margin},  needs θ1 ≠ margin
    T1.3a  q > 2, all p_j ≤ 2            θ = min{θ2, θ3},      needs θ2 ≠ θ3
    T1.3b  q > 2, all p_j ≥ 2, some < q  θ = min{θ1, θ3},      needs θ1 ≠ θ3
    T1.3c  q > 2, p̄ straddles 2          θ = strict min of {θ1, θ2, θ3}

with θ2 = <r̄>/d + 1/2 − <r̄>/<p̄ ∘ r̄> and θ3 = (q/2)·margin.  The T1.2*
and T1.3* rows additionally require every M_j < 1.

In the plane (d = 2) the regularity sums can fail while the embedding
stays compact: with p_hi > q > p_lo the failure is exactly

    r_lo ≤ 1/p_lo − 1/p_hi          (small smoothness in the lo direction)

and the exponent is still explicit.  With λ and μ the interpolation
weights of 1/q resp. 1/2 between 1/p_hi and 1/p_lo, and

    ŝ = 1 / (1 − r_lo (1 − 2/q) / (1/p_lo − 1/p_hi))   ∈ [1, q/2],

    T4.1   q ≤ 2             θ = min{θ1, λ r_lo},        needs θ1 ≠ λ r_lo
    T4.2a  q > 2, p_lo ≥ 2   θ = min{θ1, ŝ λ r_lo},      needs θ1 ≠ ŝ λ r_lo
    T4.2b  q > 2, p_lo < 2   θ = strict min of {θ1, ŝ λ r_lo, μ r_lo}

Any required strict inequality that fails is a tie: the estimate is not
certified, the case label is ``uncovered`` and ``tie`` is set.  Everything
here is exact rational arithmetic; the LP route in `exponent` recomputes
the same θ values from the raw piecewise objective and the two are checked
against each other in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .params import ProblemSpec

__all__ = [
    "RegimeReport",
    "check_regularity",
    "noncompact_screen",
    "regular_exponent",
    "small_smoothness_exponent",
    "classify_regime",
]

_ONE = Fraction(1)
_HALF = Fraction(1, 2)


@dataclass(frozen=True)
class RegimeReport:
    bounded: bool
    compact: bool
    regularity: bool
    case: str
    thetas: dict[str, Fraction] = field(default_factory=dict)
    exponent: Fraction | None = None
    tie: bool = False


def check_regularity(spec: ProblemSpec) -> bool:
    """All regularity sums strictly below 1."""
    # M_j = (mixed·D − X_j·total)/D² is largest at the least X_j.
    return (spec.mixed - spec.D) * spec.D < min(spec.X) * spec.total


def _beyond_q(spec: ProblemSpec, X_j: int) -> int:
    """(x_j − x_q)·D·a for q = a/b, an integer whose sign is that of q − p_j."""
    return X_j * spec.q.numerator - spec.D * spec.q.denominator


def noncompact_screen(spec: ProblemSpec) -> bool | None:
    """Non-compactness screen for the all-p≤q range.

    Returns None when some p_j > q (the screen does not apply), else
    whether some regularity sum reaches 1, which forces a non-compact
    embedding regardless of the compactness margin.
    """
    if _beyond_q(spec, min(spec.X)) < 0:  # some p_j > q
        return None
    return not check_regularity(spec)


def _theta1(spec: ProblemSpec) -> Fraction:
    return spec.r_mean() / spec.d


# Each case's exponent is the strict minimum of its rival thetas: these
# rows name them, and every other case takes all of its thetas.
_RIVALS = {"T1.2a": ("theta2",), "T1.3a": ("theta2", "theta3"), "T1.3b": ("theta1", "theta3")}


def _strict_min(regular: bool, case: str, thetas: dict[str, Fraction]) -> RegimeReport:
    """The compact report for `case`; ``uncovered`` with `tie` set when the
    least of its rival thetas is shared."""
    values = sorted(thetas[k] for k in _RIVALS.get(case, thetas))
    if len(values) > 1 and values[0] == values[1]:
        return RegimeReport(True, True, regular, "uncovered", thetas, None, tie=True)
    return RegimeReport(True, True, regular, case, thetas, values[0])


def regular_exponent(spec: ProblemSpec) -> RegimeReport | None:
    """The T1 closed forms, or None when their preconditions fail.

    Requires a strictly positive margin.  The all-p≥q row never needs the
    regularity sums; the other rows do.
    """
    margin = spec.compact_margin()
    regular = check_regularity(spec)
    D, X_min, X_max = spec.D, min(spec.X), max(spec.X)
    t1 = _theta1(spec)
    if _beyond_q(spec, X_max) <= 0:  # all p_j ≥ q
        # margin >= theta1 > 0 automatically in this row.
        case, thetas = "T1.1", {"theta1": t1}
    elif margin.numerator <= 0 or not regular:
        return None
    elif spec.q.numerator <= 2 * spec.q.denominator:  # q ≤ 2
        # T1.2a: all p_j ≤ q; T1.2b: p̄ straddles q.
        case = "T1.2a" if _beyond_q(spec, X_min) >= 0 else "T1.2b"
        thetas = {"theta1": t1, "theta2": margin}
    else:  # q > 2 with some p_j < q
        low, high = 2 * X_min >= D, 2 * X_max <= D  # all p_j ≤ 2, all p_j ≥ 2
        case = "T1.3a" if low else "T1.3b" if high else "T1.3c"
        t2 = t1 + _HALF - spec.r_mean() / spec.pr_mean()
        thetas = {"theta1": t1, "theta2": t2, "theta3": (spec.q / 2) * margin}
    return _strict_min(regular, case, thetas)


def small_smoothness_exponent(spec: ProblemSpec) -> RegimeReport | None:
    """The planar T4 closed forms, or None when their preconditions fail.

    Preconditions: d = 2, the p̄ straddle p_lo < q < p_hi (either coordinate
    order), small smoothness r_lo ≤ 1/p_lo − 1/p_hi, and a positive margin.
    """
    if spec.d != 2:
        return None
    margin = spec.compact_margin()
    if margin.numerator <= 0:
        return None
    side = [_beyond_q(spec, X_j) for X_j in spec.X]
    if side[0] < 0 < side[1]:
        hi, lo = 0, 1
    elif side[1] < 0 < side[0]:
        hi, lo = 1, 0
    else:
        return None
    r_lo = spec.r[lo]
    # r_lo > x_lo − x_hi, over D.
    if r_lo.numerator * spec.D > r_lo.denominator * (spec.X[lo] - spec.X[hi]):
        return None
    x_hi, x_lo = spec.x[hi], spec.x[lo]
    regular = check_regularity(spec)  # always False here; reported for context
    q = spec.q
    t1 = _theta1(spec)
    lam = (spec.x_q - x_hi) / (x_lo - x_hi)
    if q.numerator <= 2 * q.denominator:  # q ≤ 2
        case, thetas = "T4.1", {"theta1": t1, "theta2": lam * r_lo}
    else:
        s_hat = _ONE / (_ONE - r_lo * (_ONE - 2 / q) / (x_lo - x_hi))
        case, thetas = "T4.2a", {"theta1": t1, "theta2": s_hat * lam * r_lo}
        if 2 * spec.X[lo] > spec.D:  # p_lo < 2
            mu = (_HALF - x_hi) / (x_lo - x_hi)
            case, thetas["theta3"] = "T4.2b", mu * r_lo
    return _strict_min(regular, case, thetas)


def classify_regime(spec: ProblemSpec) -> RegimeReport:
    """Total classification: every spec gets exactly one case label.

    Order of screens: the non-compact screen (all p ≤ q, a regularity sum
    reaching 1) wins; then all-p≥q (always compact); then a non-positive
    margin (non-compact, no estimate); then the regular T1 rows; then the
    planar small-smoothness rows; everything else is ``uncovered``.  The
    screens compare the integers `ProblemSpec` keeps over D and the sign
    of the margin's numerator; only the reported θ values are `Fraction`s.
    """
    margin = spec.compact_margin()
    bounded = margin.numerator >= 0
    regular = check_regularity(spec)
    if noncompact_screen(spec):
        return RegimeReport(bounded, False, regular, "T3-noncompact")
    report = regular_exponent(spec)
    if report is not None:
        return report
    if margin.numerator <= 0:
        return RegimeReport(bounded, False, regular, "uncovered")
    report = small_smoothness_exponent(spec)
    if report is not None:
        return report
    return RegimeReport(bounded, True, regular, "uncovered")
