"""Closed-form regime classification: one worked example per case, totality."""

import dataclasses
from fractions import Fraction as F

from _reference import check_compact, permuted, reference_classify_regime
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcalc.closedform import classify_regime
from widthcalc.exponent import build_objective, minimize
from widthcalc.oracle import BRANCH_LABELS, SCREEN_LABEL, Lcg, _propose
from widthcalc.params import ParameterError, ProblemSpec

CASE_LABELS = (
    "T1.1",
    "T1.2a",
    "T1.2b",
    "T1.3a",
    "T1.3b",
    "T1.3c",
    "T4.1",
    "T4.2a",
    "T4.2b",
    "T3-noncompact",
    "uncovered",
)

rationals = st.fractions(min_value=F(1, 6), max_value=F(6), max_denominator=8)


def _spec(r, p, q):
    return ProblemSpec(r=tuple(F(v) for v in r), p=tuple(F(v) for v in p), q=F(q))


def _case(r, p, q):
    return classify_regime(_spec(r, p, q))


def test_all_large_integrability_uses_the_smoothness_mean():
    rep = _case((1, 1), (3, 3), 2)
    assert rep.case == "T1.1" and rep.exponent == F(1, 2) and rep.compact


def test_all_small_integrability_uses_the_margin():
    rep = _case((1, 1), ("3/2", "3/2"), 2)
    assert rep.case == "T1.2a" and rep.exponent == F(1, 3)


def test_low_q_straddle_takes_the_smaller_candidate():
    rep = _case((3, "29/6"), ("11/6", "5/4"), "3/2")
    assert rep.case == "T1.2b"
    assert rep.exponent == min(rep.thetas["theta1"], rep.thetas["theta2"])


def test_high_q_all_small_case():
    rep = _case((2, 2), ("3/2", "3/2"), 4)
    assert rep.case == "T1.3a"
    assert rep.exponent == min(rep.thetas["theta2"], rep.thetas["theta3"])


def test_high_q_all_at_least_two_case():
    rep = _case((1, 1), (3, 3), 4)
    assert rep.case == "T1.3b" and rep.exponent == F(1, 2)


def test_high_q_straddle_needs_a_strict_winner():
    rep = _case((2, 1), (8, "3/2"), 4)
    assert rep.case == "T1.3c"
    assert rep.exponent == min(rep.thetas.values())


def test_planar_small_smoothness_low_q():
    rep = _case((1, "1/4"), (8, "8/5"), 2)
    assert rep.case == "T4.1" and rep.exponent == F(3, 16)
    assert not rep.regularity


def test_planar_small_smoothness_high_q_mid_range():
    spec = _spec(("3/8", 2), (2, 8), 3)
    assert spec.p[0] < spec.q < spec.p[1]
    rep = classify_regime(spec)
    assert rep.case == "T4.2a" and rep.exponent == F(5, 16)
    assert rep.exponent == minimize(build_objective(spec)).theta
    # the coordinate order is immaterial
    assert classify_regime(permuted(spec, (1, 0))).exponent == F(5, 16)


def test_planar_small_smoothness_high_q_small_range():
    rep = _case((4, "1/2"), (8, "3/2"), 3)
    assert rep.case == "T4.2b" and rep.exponent == F(5, 18)


def test_screen_fires_for_saturated_regularity_sums():
    # all p below q, and the rough coordinate carries the larger 1/p
    spec = _spec(("1/4", 1), ("9/8", 2), 2)
    rep = classify_regime(spec)
    assert rep.case == "T3-noncompact" and not rep.compact and rep.exponent is None
    # The screen's two conditions: every p_j ≤ q, and a regularity sum reaching 1.
    assert max(spec.p) <= spec.q and max(spec.reg_sums) >= 1 and not rep.regularity


def test_exact_candidate_tie_is_reported_uncovered():
    rep = _case((2, 2), (3, "3/2"), 2)
    assert rep.case == "uncovered" and rep.tie and rep.exponent is None
    assert rep.thetas["theta1"] == rep.thetas["theta2"] == F(1)


def test_all_large_row_never_needs_regularity():
    spec = _spec(("1/8", 4), ("5/2", 10), 2)
    rep = classify_regime(spec)
    assert not rep.regularity  # irregular on purpose
    assert rep.case == "T1.1" and rep.exponent == 1 / sum(1 / r for r in spec.r)  # <r̄>/d
    assert rep.compact and check_compact(spec)


def test_regularity_sums_sum_signs():
    spec = _spec((1, "1/4"), (8, "8/5"), 2)
    assert spec.reg_sums == (F(2), F(-1, 2))
    assert not classify_regime(spec).regularity


@settings(max_examples=150, deadline=None)
@given(
    st.tuples(rationals, rationals),
    st.tuples(rationals.map(lambda x: 1 + x), rationals.map(lambda x: 1 + x)),
    rationals.map(lambda x: 1 + x),
)
def test_every_spec_gets_exactly_one_known_label(r, p, q):
    rep = classify_regime(ProblemSpec(r=r, p=p, q=q))
    assert rep.case in CASE_LABELS
    assert (rep.exponent is None) == (rep.case in ("T3-noncompact", "uncovered"))
    if not rep.compact:
        assert rep.case in ("T3-noncompact", "uncovered")
    if rep.tie:
        assert rep.case == "uncovered"


# Exact ties in the T1 and the planar rows, and r_lo = 1/p_lo − 1/p_hi on
# the small-smoothness line, which random draws rarely meet.
EDGES = [
    (("2", "2"), ("3", "3/2"), "2"),
    (("1", "1"), ("2", "2"), "5"),
    (("2/3", "1/3"), ("5/2", "5/4"), "3/2"),
    (("1/6", "2"), ("5/2", "5"), "3"),
    (("1/2", "1"), ("4/3", "4"), "2"),
    (("1/2", "1"), ("4/3", "4"), "3"),
    # Thresholds, at d = 2 and d = 3: q = 2, some p_j = q, some p_j = 2, each
    # on the boundary of one integer screen (X_j against Q, 2Q against D,
    # 2X_j against D).
    (("1/4", "1"), ("9/8", "2"), "2"),
    (("1/4", "1", "1"), ("9/8", "2", "3/2"), "2"),
    (("2", "2"), ("3/2", "2"), "2"),
    (("2", "2", "2"), ("3/2", "4/3", "2"), "2"),
    (("1", "1"), ("3", "5"), "3"),
    (("1", "2", "1"), ("3", "5", "4"), "3"),
    (("2", "2"), ("2", "3/2"), "3"),
    (("2", "2", "2"), ("2", "3/2", "5/4"), "3"),
    (("1", "1"), ("2", "4"), "3"),
    (("1", "1", "1"), ("2", "4", "5/2"), "3"),
    (("1", "1/4"), ("6", "2"), "3"),
    (("1/10", "1"), ("3", "5"), "3"),
]


def _seeded_specs():
    """Specs at d = 2–16: each branch sampler's proposals at d = 2, draws
    with small denominators at d = 3–16, and the edge cases above."""
    rng = Lcg(2027)
    for label in (*BRANCH_LABELS, SCREEN_LABEL):
        for _ in range(60):
            try:
                yield _propose(rng, label)
            except (ParameterError, ZeroDivisionError):
                pass
    for d in (3, 4, 5, 8, 12, 16):
        for _ in range(80):
            q = rng.fraction_between(1, 6, 4) if rng.coin() else F(rng.rand_below(3) + 2)
            # p̄ below q, below 2, or anywhere; r̄ small or large.
            p_hi = (q, min(q, F(2)), F(8))[rng.rand_below(3)]
            p = [rng.fraction_between(1, p_hi, 8) for _ in range(d)]
            if rng.coin():
                p[rng.rand_below(d)] = q if rng.coin() else F(2)
            r_lo = F(rng.rand_below(2))
            r = [rng.fraction_between(r_lo, r_lo + 3, 4) for _ in range(d)]
            yield ProblemSpec(r=r, p=p, q=q)
    for r, p, q in EDGES:
        yield _spec(r, p, q)


def test_integer_closed_forms_equal_the_fraction_definitions():
    reached, reached_beyond_plane, tied, dims, edges = set(), set(), set(), set(), set()
    for spec in _seeded_specs():
        report, reference = classify_regime(spec), reference_classify_regime(spec)
        for f in dataclasses.fields(report):
            assert getattr(report, f.name) == getattr(reference, f.name), (str(spec), f.name)
        assert list(report.thetas) == list(reference.thetas)
        assert all(type(v) is F for v in report.thetas.values())
        reached.add(report.case)
        if spec.d > 2:
            reached_beyond_plane.add(report.case)
        dims.add(spec.d)
        if report.tie:
            tied.add(frozenset(report.thetas))
        on = {"q = 2": spec.q == 2, "p_j = q": spec.q in spec.p, "p_j = 2": 2 in spec.p}
        edges |= {(edge, spec.d > 2) for edge in on if on[edge]}
    assert reached == set(CASE_LABELS)
    kinds = ("q = 2", "p_j = q", "p_j = 2")
    assert edges == {(kind, beyond) for kind in kinds for beyond in (False, True)}
    assert reached_beyond_plane == set(CASE_LABELS) - {"T4.1", "T4.2a", "T4.2b"}
    assert dims == {2, 3, 4, 5, 8, 12, 16}
    # Two-way ties in T1.2 and T4 rows, and a tie among three thetas.
    assert {frozenset({"theta1", "theta2"}), frozenset({"theta1", "theta2", "theta3"})} <= tied


def test_a_spec_is_classified_once():
    spec = _spec((1, 1), (3, "3/2"), 4)
    assert classify_regime(spec) is classify_regime(spec)
    # An equal spec built anew is classified anew, to an equal report.
    again = _spec((1, 1), (3, "3/2"), 4)
    assert classify_regime(again) is not classify_regime(spec)
    assert classify_regime(again) == classify_regime(spec)
