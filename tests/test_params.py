"""Parameter types: validation, harmonic means, the piece-family table."""

from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcalc.params import (
    MAX_DIMENSION,
    ParameterError,
    ProblemSpec,
    as_fraction,
    harmonic_mean,
    piece_rows,
)

rationals = st.fractions(min_value=F(1, 8), max_value=F(8), max_denominator=12)


def spec_strategy(d=2):
    return st.builds(
        lambda r, p, q: ProblemSpec(r=r, p=p, q=q),
        st.tuples(*[rationals.map(lambda x: x + F(1, 8))] * d),
        st.tuples(*[rationals.map(lambda x: 1 + x)] * d),
        rationals.map(lambda x: 1 + x),
    )


@st.composite
def wide_specs(draw):
    """Specs at every supported d from 2 to MAX_DIMENSION, with a coordinate order."""
    d = draw(st.integers(2, MAX_DIMENSION))
    coords = st.lists(rationals, min_size=d, max_size=d)
    spec = ProblemSpec(
        r=[x + F(1, 8) for x in draw(coords)],
        p=[1 + x for x in draw(coords)],
        q=1 + draw(rationals),
    )
    return spec, tuple(draw(st.permutations(range(d))))


def test_as_fraction_accepts_exact_inputs_only():
    assert as_fraction("3/2") == F(3, 2)
    assert as_fraction(2) == F(2)
    with pytest.raises(ParameterError):
        as_fraction(0.5)


def test_harmonic_mean_worked_values():
    assert harmonic_mean((F(1), F(2))) == F(4, 3)
    assert harmonic_mean((F(3), F(3), F(3))) == F(3)


@given(st.lists(rationals, min_size=1, max_size=6))
def test_harmonic_mean_between_min_and_max(values):
    hm = harmonic_mean(tuple(values))
    assert min(values) <= hm <= max(values)


@given(st.lists(rationals, min_size=2, max_size=5))
def test_harmonic_mean_is_order_free(values):
    assert harmonic_mean(tuple(values)) == harmonic_mean(tuple(reversed(values)))


def test_spec_validation_rejects_out_of_range_parameters():
    with pytest.raises(ParameterError):
        ProblemSpec(r=(F(1),), p=(F(3),), q=F(2))  # d < 2
    with pytest.raises(ParameterError):
        ProblemSpec(r=(F(1),) * (MAX_DIMENSION + 1), p=(F(3),) * (MAX_DIMENSION + 1), q=F(2))
    with pytest.raises(ParameterError):
        ProblemSpec(r=(F(0), F(1)), p=(F(3), F(3)), q=F(2))  # r must be positive
    with pytest.raises(ParameterError):
        ProblemSpec(r=(F(1), F(1)), p=(F(1), F(3)), q=F(2))  # p must exceed 1
    with pytest.raises(ParameterError):
        ProblemSpec(r=(F(1), F(1)), p=(F(3), F(3)), q=F(1))  # q must exceed 1


def test_compact_margin_worked_example():
    spec = ProblemSpec(r=(F(1), F(1, 4)), p=(F(8), F(8, 5)), q=F(2))
    assert spec.compact_margin() == F(7, 40)


@given(spec_strategy())
def test_compact_margin_matches_reciprocal_form(spec):
    # margin = [1 − Σ (1/p_i)/r_i] / Σ (1/r_i) + 1/q
    inv_r_sum = sum(1 / r for r in spec.r)
    mixed = sum((1 / p) / r for p, r in zip(spec.p, spec.r))
    assert spec.compact_margin() == (1 - mixed) / inv_r_sum + 1 / spec.q


@given(spec_strategy())
def test_permutation_preserves_margin_and_means(spec):
    flipped = spec.permuted((1, 0))
    assert flipped.compact_margin() == spec.compact_margin()
    assert flipped.r_mean() == spec.r_mean()
    assert flipped.pr_mean() == spec.pr_mean()


def _shapes(spec):
    """The row shapes defined at q: the high shape needs q > 2."""
    return (False, True) if spec.q > 2 else (False,)


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_cached_invariants_equal_their_definitions(case):
    spec, _ = case
    d = spec.d
    assert spec.x == tuple(1 / p for p in spec.p)
    assert spec.inv_r == tuple(1 / r for r in spec.r)
    assert spec.x_q == 1 / spec.q
    assert spec.r_mean() == harmonic_mean(spec.r)
    assert spec.pr_mean() == harmonic_mean([p * r for p, r in zip(spec.p, spec.r)])
    rm = harmonic_mean(spec.r)
    assert spec.compact_margin() == rm / d + 1 / spec.q - rm / spec.pr_mean()
    inv_r_sum = sum(1 / r for r in spec.r)
    mixed = sum((1 / p) / r for p, r in zip(spec.p, spec.r))
    assert spec.compact_margin() == (1 - mixed) / inv_r_sum + 1 / spec.q
    assert spec.reg_sums == tuple(
        sum((1 / spec.r[i]) * (1 / spec.p[i] - 1 / spec.p[j]) for i in range(d))
        for j in range(d)
    )
    for high in _shapes(spec):
        assert spec.rows(high) == tuple(_rows(spec, high))
        assert spec.rows(high) is spec.rows(high)  # built once


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_equal_specs_stay_equal_whatever_their_caches_hold(case):
    spec, _ = case
    twin = ProblemSpec(r=spec.r, p=spec.p, q=spec.q)
    for high in _shapes(spec):
        spec.rows(high)  # only one of the two has its row tables filled
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == repr(twin) == f"ProblemSpec(r={spec.r!r}, p={spec.p!r}, q={spec.q!r})"
    assert str(spec) == str(twin)
    assert len({spec, twin}) == 1


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_permuted_spec_derives_its_own_invariants(case):
    spec, order = case
    spec.rows(False)  # a filled cache on the original must not leak
    moved = spec.permuted(order)
    assert moved.x == tuple(spec.x[i] for i in order)
    assert moved.inv_r == tuple(spec.inv_r[i] for i in order)
    assert moved.reg_sums == tuple(spec.reg_sums[i] for i in order)
    assert moved.compact_margin() == spec.compact_margin()
    for high in _shapes(moved):
        assert moved.rows(high) == tuple(_rows(moved, high))


def _rows(spec, high):
    return piece_rows([1 / p for p in spec.p], 1 / spec.q, high)


def _members(rows, family):
    return [idx for fam, idx, *_ in rows if fam == family]


def test_partition_places_thresholds_in_both_sets():
    spec = ProblemSpec(r=(F(1), F(1), F(1)), p=(F(2), F(4), F(3, 2)), q=F(4))
    rows = _rows(spec, high=True)
    assert (0,) in _members(rows, "mid-p") and (0,) in _members(rows, "small-p")  # p = 2
    assert (1,) in _members(rows, "large-p") and (1,) in _members(rows, "mid-p")  # p = q
    # Cross families are open at their level: no pair starts at p = q or ends at p = 2.
    assert all(i != 1 for i, _ in _members(rows, "cross-lambda"))
    assert all(j != 0 for _, j in _members(rows, "cross-mu"))
    low = ProblemSpec(r=(F(1), F(1)), p=(F(7, 4), F(3)), q=F(7, 4))
    rows = _rows(low, high=False)
    assert _members(rows, "large-p") == [(0,), (1,)]
    assert _members(rows, "small-p") == [(0,)]  # p = q sits on the large/small boundary
    assert _members(rows, "cross-lambda") == []


@pytest.mark.parametrize("q", [F(2), F(7, 4)])
def test_high_shape_is_refused_at_q_up_to_two(q):
    # p1 = 2 at q = 2 would make θ_q = 0 the divisor of the mid-p slope.
    spec = ProblemSpec(r=(F(1), F(1), F(1)), p=(F(2), F(3), F(3, 2)), q=q)
    with pytest.raises(ParameterError):
        spec.rows(True)
    with pytest.raises(ParameterError):
        piece_rows(spec.x, spec.x_q, high=True)
    assert spec.rows(False)  # the low shape stays defined


def test_low_q_partition_worked_example():
    spec = ProblemSpec(r=(F(1), F(1)), p=(F(3), F(3, 2)), q=F(2))
    one, zero = (F(1),), F(0)
    assert _rows(spec, high=False) == [
        ("large-p", (0,), one, zero, zero, F(1, 6)),
        ("small-p", (1,), one, F(-1, 6), zero, zero),
        ("cross-lambda", (0, 1), (F(1, 2), F(1, 2)), zero, zero, zero),
    ]


@given(spec_strategy())
def test_interp_weights_hit_their_levels_exactly(spec):
    levels = {"cross-lambda": 1 / spec.q, "cross-mu": F(1, 2)}
    for high in (False, True) if spec.q > 2 else (False,):
        for family, idx, weights, *_ in _rows(spec, high):
            if family not in levels:
                assert weights == (1,)
                continue
            (i, j), (w_i, w_j) = idx, weights
            assert w_i * (1 / spec.p[i]) + w_j * (1 / spec.p[j]) == levels[family]
            assert w_i == 1 - w_j
            assert 0 < w_j < 1


# ---------------------------------------------------------------------------
# the one-denominator arithmetic against plain Fraction formulas


@st.composite
def threshold_specs(draw):
    """Specs at d = 2..16 whose p_j may sit on q or on 2."""
    d = draw(st.integers(2, MAX_DIMENSION))
    q = 1 + draw(rationals)
    p = st.one_of(rationals.map(lambda x: 1 + x), st.just(q), st.just(F(2)))
    return ProblemSpec(
        r=[x + F(1, 8) for x in draw(st.lists(rationals, min_size=d, max_size=d))],
        p=draw(st.lists(p, min_size=d, max_size=d)),
        q=q,
    )


def _plain_rows(x, x_q, high):
    """The piece table of `piece_rows`' docstring, one Fraction step at a time."""
    d, half = len(x), F(1, 2)
    rows = [("large-p", (j,), (1,), 0, 0, x_q - x[j]) for j in range(d) if x[j] <= x_q]
    if high:
        theta_q = half - x_q
        for j in range(d):
            if x_q <= x[j] <= half:
                c = (x[j] - x_q) / theta_q
                rows.append(("mid-p", (j,), (1,), -c / 2, c / 2, 0))
        rows += [("small-p", (j,), (1,), -x[j], half, 0) for j in range(d) if x[j] >= half]
    else:
        rows += [("small-p", (j,), (1,), x_q - x[j], 0, 0) for j in range(d) if x[j] >= x_q]
    levels = [("cross-lambda", x_q, 0, 0)] + ([("cross-mu", half, -half, half)] if high else [])
    for family, level, t_coeff, logn_coeff in levels:
        for i in range(d):
            for j in range(d):
                if x[i] < level < x[j]:
                    lam = (level - x[i]) / (x[j] - x[i])
                    rows.append((family, (i, j), (1 - lam, lam), t_coeff, logn_coeff, 0))
    return rows


def _all_fractions(rows):
    return all(
        type(v) is F for row in rows for v in (*row[2], *row[3:])
    )


@settings(max_examples=60, deadline=None)
@given(threshold_specs())
def test_spec_invariants_match_plain_fraction_formulas(spec):
    d, r, p, q = spec.d, spec.r, spec.p, spec.q
    assert spec.x == tuple(F(1) / pj for pj in p)
    assert spec.inv_r == tuple(F(1) / rj for rj in r)
    assert spec.x_q == F(1) / q
    assert spec.reg_sums == tuple(
        sum((F(1) / r[i]) * (F(1) / p[i] - F(1) / p[j]) for i in range(d)) for j in range(d)
    )
    r_mean = d / sum(F(1) / rj for rj in r)
    pr_mean = d / sum(F(1) / (pj * rj) for pj, rj in zip(p, r))
    assert spec.r_mean() == r_mean and spec.pr_mean() == pr_mean
    assert spec.compact_margin() == r_mean / d + F(1) / q - r_mean / pr_mean
    derived = (*spec.x, *spec.inv_r, spec.x_q, *spec.reg_sums)
    assert all(type(v) is F for v in derived)
    for high in _shapes(spec):
        rows = spec.rows(high)
        assert list(rows) == _plain_rows([F(1) / pj for pj in p], F(1) / q, high)
        assert _all_fractions(rows)


@st.composite
def threshold_points(draw):
    """(x̄, x_q) at d = 2..16 with x_j on x_q, on 1/2 or at 0 (p = ∞)."""
    d = draw(st.integers(2, MAX_DIMENSION))
    x_q = draw(st.fractions(min_value=0, max_value=1, max_denominator=12).filter(bool))
    coord = st.one_of(
        st.fractions(min_value=0, max_value=1, max_denominator=12),
        st.sampled_from([x_q, F(1, 2), F(0)]),
    )
    return draw(st.lists(coord, min_size=d, max_size=d)), x_q


@settings(max_examples=100, deadline=None)
@given(threshold_points())
def test_piece_rows_match_plain_fraction_formulas(point):
    x, x_q = point
    for high in (False, True) if x_q < F(1, 2) else (False,):
        rows = piece_rows(x, x_q, high)
        assert rows == _plain_rows(x, x_q, high)
        assert _all_fractions(rows)
