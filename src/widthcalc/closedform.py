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
certified, the case label is ``uncovered`` and ``tie`` is set.

Everything here is exact, and it runs on the integer scale `ProblemSpec`
keeps over its denominator D: X_j = D/p_j, Q = D/q, D/2, total =
D·Σ 1/r_j and mixed = D·Σ 1/(p_j r_j).  Every screen compares X_j with Q
and D/2, or 2Q with D.  Then θ1 = D/total, and with

    excess = (D − mixed)·D + Q·total = margin·total·D

the margin has the sign of excess and

    θ2 = excess / (total·D)                                  (T1.2)
    θ2 = (2(D − mixed) + total) / (2·total)                  (T1.3)
    θ3 = excess / (2·Q·total)

while the planar rows, with gap = X_lo − X_hi and r_lo = r_n/r_d, take

    λ = (Q − X_hi) / gap,     μ = (D/2 − X_hi) / gap,
    ŝλr_lo = (Q − X_hi)·r_n / (r_d·gap − r_n·(D − 2Q)).

`classify_regime` is the one public entry: it builds excess, the
regularity verdict (every M_j < 1, read at the least X_j) and the least and
greatest X_j once, and runs every screen above in one pass.  Each θ is
compared as a (numerator, denominator) pair, and one `Fraction` is built
per θ that a report carries.  The report is kept on the spec, so a spec is
classified once however often it is asked.  The LP route in `exponent`
recomputes the same θ values from the raw piecewise objective, and the
test suite checks the two against each other and these forms against their
`Fraction` definitions.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .params import ProblemSpec

__all__ = ["RegimeReport", "classify_regime"]


@dataclass(frozen=True)
class RegimeReport:
    bounded: bool
    compact: bool
    regularity: bool
    case: str
    thetas: dict[str, Fraction] = field(default_factory=dict)
    exponent: Fraction | None = None
    tie: bool = False


# Each case's exponent is the strict minimum of its rival thetas: these
# rows name them, and every other case takes all of its thetas.
_RIVALS = {"T1.2a": ("theta2",), "T1.3a": ("theta2", "theta3"), "T1.3b": ("theta1", "theta3")}


def _strict_min(regular: bool, case: str, thetas: dict[str, tuple[int, int]]) -> RegimeReport:
    """The compact report for `case`, each theta given as a (numerator,
    denominator) pair and built as one `Fraction`; ``uncovered`` with `tie`
    set when the least of its rival thetas is shared."""
    thetas = {k: Fraction(n, m) for k, (n, m) in thetas.items()}
    values = sorted(thetas[k] for k in _RIVALS.get(case, thetas))
    if len(values) > 1 and values[0] == values[1]:
        return RegimeReport(True, True, regular, "uncovered", thetas, None, tie=True)
    return RegimeReport(True, True, regular, case, thetas, values[0])


def classify_regime(spec: ProblemSpec) -> RegimeReport:
    """Total classification: every spec gets exactly one case label.

    Order of screens: the non-compact screen (all p ≤ q, a regularity sum
    reaching 1) wins; then all-p≥q (always compact); then a non-positive
    margin (non-compact, no estimate); then the regular T1 rows; then the
    planar small-smoothness rows; everything else is ``uncovered``.  The
    screens and the closed forms run on the integers `ProblemSpec` keeps
    over D, and only the reported θ values are `Fraction`s.  The report is
    kept on the spec, so classifying the same spec again is a lookup.
    """
    report = spec.__dict__.get("_regime")
    if report is None:
        # Frozen: the report goes straight into the instance dict.
        report = spec.__dict__["_regime"] = _classify(spec)
    return report


def _classify(spec: ProblemSpec) -> RegimeReport:
    """The screens of `classify_regime` in one pass over the spec's integers."""
    D, Q, total, mixed = spec.D, spec.Q, spec.total, spec.mixed
    X_min, X_max = min(spec.X), max(spec.X)
    excess = (D - mixed) * D + Q * total  # margin·total·D
    bounded = excess >= 0
    # M_j = (mixed·D − X_j·total)/D² is largest at the least X_j.
    regular = (mixed - D) * D < X_min * total
    if X_min >= Q and not regular:  # all p_j ≤ q, some M_j ≥ 1
        return RegimeReport(bounded, False, regular, "T3-noncompact")
    t1 = (D, total)
    if X_max <= Q:  # all p_j ≥ q: margin ≥ θ1 > 0, no regularity needed
        return _strict_min(regular, "T1.1", {"theta1": t1})
    if excess <= 0:
        return RegimeReport(bounded, False, regular, "uncovered")
    if regular:
        if 2 * Q >= D:  # q ≤ 2
            # T1.2a: all p_j ≤ q; T1.2b: p̄ straddles q.
            case = "T1.2a" if X_min >= Q else "T1.2b"
            return _strict_min(regular, case, {"theta1": t1, "theta2": (excess, total * D)})
        # q > 2 with some p_j < q.
        low, high = 2 * X_min >= D, 2 * X_max <= D  # all p_j ≤ 2, all p_j ≥ 2
        case = "T1.3a" if low else "T1.3b" if high else "T1.3c"
        t2 = (2 * (D - mixed) + total, 2 * total)
        thetas = {"theta1": t1, "theta2": t2, "theta3": (excess, 2 * Q * total)}
        return _strict_min(regular, case, thetas)
    if spec.d == 2:  # the planar rows, where irregular specs can still be compact
        # Irregular and not T3, some p_j < q; not T1.1, some p_j > q: so p̄
        # straddles q, X_hi < Q < X_lo, and small smoothness is what is left.
        hi, lo = (0, 1) if spec.X[0] < Q else (1, 0)
        X_hi, X_lo = spec.X[hi], spec.X[lo]
        gap = X_lo - X_hi  # (x_lo − x_hi)·D
        rn, rd = spec.r[lo].numerator, spec.r[lo].denominator
        if rn * D <= rd * gap:  # r_lo ≤ x_lo − x_hi
            lam = Q - X_hi  # λ = lam/gap
            if 2 * Q >= D:  # q ≤ 2
                case, thetas = "T4.1", {"theta1": t1, "theta2": (lam * rn, gap * rd)}
            else:
                # ŝ = r_d·gap / (r_d·gap − r_n·(D − 2Q)), so ŝλr_lo is:
                s_lam_r = (lam * rn, rd * gap - rn * (D - 2 * Q))
                case, thetas = "T4.2a", {"theta1": t1, "theta2": s_lam_r}
                if 2 * X_lo > D:  # p_lo < 2
                    # μ r_lo, with μ = (D/2 − X_hi)/gap.
                    case, thetas["theta3"] = "T4.2b", ((D // 2 - X_hi) * rn, gap * rd)
            return _strict_min(regular, case, thetas)
    return RegimeReport(bounded, True, regular, "uncovered")
