"""The piecewise objective and its exact LP minimisation."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthcalc.exponent as exponent
from widthcalc._simplex import solve_lp
from widthcalc.exponent import (
    build_objective,
    candidate_vertices,
    classify_region,
    minimize,
    regularity_margins,
)
from widthcalc.oracle import Lcg, h_high_value, h_low_style_value
from widthcalc.params import ParameterError, ProblemSpec, partition_indices

rationals = st.fractions(min_value=F(1, 6), max_value=F(6), max_denominator=10)


def _spec(r, p, q):
    return ProblemSpec(
        r=tuple(F(v) for v in r), p=tuple(F(v) for v in p), q=F(q)
    )


def test_balanced_large_p_pair_has_exponent_one_half():
    res = minimize(build_objective(_spec((1, 1), (3, 3), 2)))
    assert res.theta == F(1, 2)
    assert res.argmin_alpha == (F(1, 2), F(1, 2))
    assert res.unique
    assert {t[0] for t in res.active_pieces} == {"large-p"}


def test_small_p_pair_minimum_is_the_margin():
    res = minimize(build_objective(_spec((1, 1), ("3/2", "3/2"), 2)))
    assert res.theta == F(1, 3)


def test_high_q_balanced_pair_keeps_one_half():
    res = minimize(build_objective(_spec((1, 1), (3, 3), 4)))
    assert res.theta == F(1, 2)
    assert res.argmin_s == 1


def test_small_smoothness_minimum_sits_on_a_vertex():
    res = minimize(build_objective(_spec((1, "1/4"), (8, "8/5"), 2)))
    assert res.theta == F(3, 16)
    assert res.argmin_alpha == (F(0), F(1))
    assert any(t[0] == "cross-lambda" for t in res.active_pieces)


def _tableau_verdict(obj):
    """(θ, whether the optimal epigraph tableau alone certifies uniqueness)."""
    cost, A_eq, b_eq, A_ub, b_ub, _ = exponent._epigraph_lp(obj)
    res = solve_lp(cost, A_eq, b_eq, A_ub, b_ub)
    split = (len(cost) - 2, len(cost) - 1)
    return res.value, exponent._tableau_certifies_unique(res, split)


def _spy_on_probes(monkeypatch):
    calls = []
    real = exponent._face_is_a_point

    def spy(obj, theta):
        calls.append(theta)
        return real(obj, theta)

    monkeypatch.setattr(exponent, "_face_is_a_point", spy)
    return calls


def test_flat_objective_reports_non_unique_argmin(monkeypatch):
    # r = (2, 2), p = (3, 3/2), q = 2 ties theta1 with the margin: the
    # optimal face is a segment, not a point.  The tableau cannot certify
    # that, so the face probes decide.
    obj = build_objective(_spec((2, 2), (3, "3/2"), 2))
    assert not _tableau_verdict(obj)[1]
    probes = _spy_on_probes(monkeypatch)
    res = minimize(obj)
    assert res.theta == F(1)
    assert probes == [F(1)]
    assert not res.unique


def test_generic_objective_is_certified_without_probes(monkeypatch):
    probes = _spy_on_probes(monkeypatch)
    res = minimize(build_objective(_spec((1, 1), (3, 3), 2)))
    assert res.unique and probes == []


def _seeded_specs(rng, per_side):
    for d in range(3, 9):
        for high in (False, True):
            for _ in range(per_side):
                if high:
                    q = rng.fraction_between(2, 6)
                else:
                    q = F(2) if rng.rand_below(4) == 0 else rng.fraction_between(1, 2)
                p = tuple(rng.fraction_between(1, q + 4) for _ in range(d))
                r = tuple(rng.fraction_between(F(1, 2), 4) for _ in range(d))
                yield ProblemSpec(r=r, p=p, q=q)


def test_tableau_certificate_agrees_with_face_probes_at_higher_d():
    certified = 0
    specs = list(_seeded_specs(Lcg(2024), per_side=2))
    for spec in specs:
        obj = build_objective(spec)
        theta, cert = _tableau_verdict(obj)
        probed = exponent._face_is_a_point(obj, theta)
        if cert:
            certified += 1
            assert probed, spec
        res = minimize(obj)
        assert res.theta == theta
        assert res.unique == probed, spec
    assert certified >= len(specs) // 2
    print(f"PASS: {certified} of {len(specs)} specs certified by the tableau")


# Two specs at d = 16, the largest d the package accepts.  Their θ and
# uniqueness verdicts were computed once with the earlier simplex, which
# pivoted on a `Fraction` tableau (about 15 s for the q = 5 spec), and are
# frozen here.
D16_ANCHORS = [
    (  # q > 2, compact; p̄ has coordinates below 2, between 2 and q, above q
        "5/4,5/4,7/4,2,3/2,11/4,13/4,13/4,3/2,5/4,7/2,3/2,9/4,7/4,3/4,2",
        "3/2,4,3/2,39/4,7/4,19/2,3,7/2,15/4,7/4,6,7,5/4,5/4,21/4,5/2",
        "5",
        F(3252249, 74654120),
        True,
    ),
    (  # q ≤ 2, straddling: one p_j above q, the rest below it
        "2,9/4,2,3,13/4,3/2,11/4,5/2,5/2,11/4,7/4,3/4,15/4,11/4,3/4,1",
        "11/8,3/2,5/4,5/4,13/8,5,3/2,3/2,5/4,9/8,11/8,3/2,13/8,13/8,11/8,11/8",
        "7/4",
        F(3262545, 38309251),
        True,
    ),
]


@pytest.mark.parametrize("r,p,q,theta,unique", D16_ANCHORS, ids=["q5-compact", "q7_4-straddle"])
def test_d16_exponents_match_frozen_anchors(r, p, q, theta, unique):
    spec = _spec(r.split(","), p.split(","), q)
    assert spec.d == 16
    assert min(spec.p) < spec.q < max(spec.p)
    if spec.q > 2:
        assert min(spec.p) < 2 < max(spec.p)
    res = minimize(build_objective(spec))
    assert res.theta == theta
    assert res.unique is unique
    assert res.compact == "compact"


def test_regularity_margins_worked_example():
    spec = _spec((1, "1/4"), (8, "8/5"), 2)
    assert regularity_margins(spec) == (F(2), F(-1, 2))


def _tset(spec):
    part = partition_indices(spec)
    every = frozenset(range(spec.d))
    if part.I == every:
        return (0,)
    if part.K == every:
        return (1, 2)
    if part.I | part.J == every:
        return (0, 2)
    return (0, 1, 2)


@pytest.mark.parametrize(
    "r,p,q",
    [
        ((1, 1), (3, 3), 4),  # all mid: vertex 2 must be skipped
        ((1, 2), ("3/2", "5/4"), 3),  # all small
        ((1, 1), (5, "7/2"), 3),  # all large/mid mix
        ((2, 1), (8, "3/2"), 4),  # straddles both thresholds
        ((1, 3), (6, "4/3"), "7/2"),
    ],
)
def test_candidate_vertices_cover_the_lp_minimum(r, p, q):
    spec = _spec(r, p, q)
    vertices = candidate_vertices(spec)
    theta = minimize(build_objective(spec)).theta
    values = [h_high_value(spec, alpha, s) for alpha, s in vertices]
    assert min(values[t] for t in _tset(spec)) == theta


def test_candidate_vertices_reject_low_q_and_irregular_specs():
    with pytest.raises(ParameterError):
        candidate_vertices(_spec((1, 1), (3, 3), 2))
    with pytest.raises(ParameterError):
        candidate_vertices(_spec((1, "1/4"), (8, "8/5"), 4))  # a margin reaches 1


def _feasible_point(rng, spec):
    q = spec.q
    s = rng.fraction_between(1, q / 2) if q > 2 else F(1)
    weights = [rng.fraction_between(0, 4) for _ in range(spec.d)]
    total = sum(weights)
    return tuple(w * s / total for w in weights), s


def test_region_systems_agree_with_direct_maximisation():
    rng = Lcg(5)
    specs = [
        _spec((2, 1), (8, "3/2"), 4),
        _spec((1, 1), (3, 5), 4),
        _spec((1, 2), ("7/4", "5/4"), 3),
        _spec(("1/2", 3), (9, "4/3"), "5/2"),
    ]
    for spec in specs:
        obj = build_objective(spec)
        for _ in range(100):
            alpha, s = _feasible_point(rng, spec)
            tag = classify_region(spec, alpha, s)
            top = max(piece.value(alpha, s) for piece in obj.pieces)
            active = {pc.provenance for pc in obj.pieces if pc.value(alpha, s) == top}
            assert tag in active


def test_region_classification_rejects_threshold_exponents():
    with pytest.raises(ParameterError):
        classify_region(_spec((1, 1), (2, 5), 4), (F(1, 2), F(1, 2)), F(1))
    with pytest.raises(ParameterError):
        classify_region(_spec((1, 1), (3, 5), 4), (F(1), F(1)), F(1))  # sum != s


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(rationals, rationals),
    st.tuples(rationals.map(lambda x: 1 + x), rationals.map(lambda x: 1 + x)),
    rationals.map(lambda x: 1 + x),
)
def test_minimum_is_invariant_under_coordinate_swap(r, p, q):
    spec = ProblemSpec(r=r, p=p, q=q)
    flipped = spec.permuted((1, 0))
    assert (
        minimize(build_objective(spec)).theta
        == minimize(build_objective(flipped)).theta
    )


def test_low_and_high_objectives_agree_with_oracle_tables():
    spec = _spec((2, 1), (3, "3/2"), 2)
    obj = build_objective(spec)
    point = (F(1, 3), F(2, 3))
    direct = max(piece.value(point, None) for piece in obj.pieces)
    assert direct == h_low_style_value(spec, point)

    spec = _spec((2, 1), (8, "3/2"), 4)
    obj = build_objective(spec)
    alpha, s = (F(1, 2), F(3, 2)), F(2)
    direct = max(piece.value(alpha, s) for piece in obj.pieces)
    assert direct == h_high_value(spec, alpha, s)
