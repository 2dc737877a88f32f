"""The grid oracle, scaling-identity checks, and cross-validation reports."""

import dataclasses
import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import widthcalc.oracle as oracle
from widthcalc.closedform import classify_regime
from widthcalc.finitedim import intersection_order
from widthcalc.oracle import (
    BRANCH_LABELS,
    GRID_ENV,
    SCREEN_LABEL,
    Lcg,
    check_scaling_identities,
    cross_validate,
    default_grid,
    grid_minimize,
    refine_bracket,
    sample_branch,
    sample_intersection,
)
from widthcalc.params import ParameterError, ProblemSpec, RangeError


def _spec(r, p, q):
    return ProblemSpec(r=tuple(F(v) for v in r), p=tuple(F(v) for v in p), q=F(q))


# ---------------------------------------------------------------------------
# the generator


def test_generator_is_a_pure_function_of_the_seed():
    a = [Lcg(123).rand_below(10**6) for _ in range(5)]
    b = [Lcg(123).rand_below(10**6) for _ in range(5)]
    assert a == b
    stream = Lcg(123)
    assert [stream.rand_below(10**6) for _ in range(5)] != a[:1] * 5


def test_rand_below_stays_in_range():
    rng = Lcg(9)
    draws = [rng.rand_below(7) for _ in range(200)]
    assert set(draws) <= set(range(7))
    assert len(set(draws)) == 7
    with pytest.raises(ParameterError):
        rng.rand_below(0)


@given(st.integers(0, 2**32), st.fractions(min_value=0, max_value=3, max_denominator=9))
@settings(max_examples=60, deadline=None)
def test_fraction_between_lands_strictly_inside(seed, lo):
    hi = lo + F(1, 3)
    v = Lcg(seed).fraction_between(lo, hi, max_den=12)
    assert lo < v < hi and v.denominator <= 12


def _fraction_between_reference(rng, lo, hi, max_den=12):
    """The sampler as first written, with Fraction floor and ceiling."""
    lo, hi = F(lo), F(hi)
    feasible = []
    for den in range(1, max_den + 1):
        nmin = math.floor(lo * den) + 1
        nmax = math.ceil(hi * den) - 1
        if nmin <= nmax:
            feasible.append((den, nmin, nmax))
    den, nmin, nmax = feasible[rng.rand_below(len(feasible))]
    return F(nmin + rng.rand_below(nmax - nmin + 1), den)


def test_fraction_between_stream_matches_the_fraction_reference():
    intervals = [
        (0, 4, 12), (F(1, 4), 4, 12), (1, 2, 12), (2, 8, 12), (1, 8, 8),
        (F(1, 64), 64, 16), (F(-7, 3), F(5, 2), 12), (F(1, 3), F(1, 2), 5),
    ]
    fast, slow = Lcg(77), Lcg(77)
    for k in range(10_000):
        lo, hi, max_den = intervals[k % len(intervals)]
        assert fast.fraction_between(lo, hi, max_den) == _fraction_between_reference(
            slow, lo, hi, max_den
        ), k


def test_fraction_between_rejects_empty_intervals():
    with pytest.raises(ParameterError):
        Lcg(0).fraction_between(F(1, 2), F(1, 2))


# ---------------------------------------------------------------------------
# grid brackets


def test_default_grid_scales_with_dimension(monkeypatch):
    monkeypatch.delenv(GRID_ENV, raising=False)
    assert default_grid(2) == 128
    monkeypatch.setenv(GRID_ENV, "32")
    assert default_grid(2) == 32
    monkeypatch.setenv(GRID_ENV, "bogus")
    with pytest.raises(ParameterError):
        default_grid(2)
    monkeypatch.setenv(GRID_ENV, "0")
    with pytest.raises(ParameterError):
        default_grid(2)


def test_bracket_on_the_balanced_pair():
    bracket = grid_minimize(_spec((1, 1), (3, 3), 2), grid=100)
    assert bracket.best_value == F(1, 2)
    assert bracket.gap == F(1, 50)
    assert bracket.lower == F(12, 25)
    assert bracket.points == 101
    assert bracket.contains(F(1, 2))
    assert bracket.contains(bracket.lower)
    assert not bracket.contains(F(1, 4))


def test_refinement_shrinks_the_gap_fourfold():
    spec = _spec((1, 1), (3, 3), 2)
    first = grid_minimize(spec, grid=100)
    finer = refine_bracket(spec, first)
    assert finer.grid == 400
    assert finer.gap == first.gap / 4
    assert finer.contains(F(1, 2))


def test_bracket_covers_the_lp_minimum_above_two():
    spec = _spec((1, 1), (3, 3), 4)
    bracket = grid_minimize(spec, grid=64)
    assert bracket.argmin_s is not None
    assert bracket.contains(F(1, 2))


def test_lattice_guard_trips_before_allocating():
    with pytest.raises(RangeError):
        grid_minimize(_spec((1, 1), (3, 3), 2), grid=1 << 21)


# ---------------------------------------------------------------------------
# identities


def test_identities_hold_exactly_on_both_sides_of_two():
    low = check_scaling_identities(_spec((1, 2), (3, "3/2"), 2), points=40, seed=3)
    assert low.ok and low.checked == 80
    high = check_scaling_identities(_spec((2, 1), (8, "3/2"), 4), points=40, seed=3)
    assert high.ok and high.checked == 160


# ---------------------------------------------------------------------------
# samplers


def test_branch_samplers_hit_their_strata():
    rng = Lcg(2026)
    for label in BRANCH_LABELS + (SCREEN_LABEL,):
        spec = sample_branch(rng, label)
        assert classify_regime(spec).case == label


def test_unknown_branch_label_is_rejected():
    with pytest.raises(ParameterError):
        sample_branch(Lcg(0), "T9.9")


def test_sampled_intersections_sit_in_the_display_range():
    rng = Lcg(5)
    for _ in range(25):
        spec = sample_intersection(rng)
        assert 2 * spec.n <= spec.N
        if spec.q > 2:
            a, b = spec.q.numerator, spec.q.denominator
            assert spec.n**a >= spec.N ** (2 * b)
        order = intersection_order(spec)
        assert not order.value.is_zero


# ---------------------------------------------------------------------------
# cross-validation reports


def test_cross_validation_is_deterministic_and_green():
    first = cross_validate(18, seed=7, grid=48, identity_points=2)
    second = cross_validate(18, seed=7, grid=48, identity_points=2)
    assert first.ok
    assert first.to_text() == second.to_text()
    assert first.to_json() == second.to_json()
    assert first.branch_counts() == {label: 2 for label in BRANCH_LABELS}
    assert first.to_text().endswith("result: PASS (0 failures)\n")


def test_cross_validation_flags_an_injected_lp_bug(monkeypatch):
    real = oracle.minimize

    def skewed(objective):
        res = real(objective)
        return dataclasses.replace(res, theta=res.theta + F(1, 977))

    monkeypatch.setattr(oracle, "minimize", skewed)
    report = cross_validate(9, seed=7)
    assert not report.ok
    assert all("closed=" in rec.detail for rec in report.records)
    assert report.to_text().rstrip().endswith("result: FAIL (9 failures)")
