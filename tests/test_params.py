"""Parameter types: validation, harmonic means, the piece-family table."""

from fractions import Fraction as F

import pytest
from _reference import (
    fraction_row,
    permuted,
    plain_piece_rows,
    reciprocals,
    reference_rate_rows,
    reference_terms,
    scaled,
)
from hypothesis import given, settings
from hypothesis import strategies as st

from widthcalc import params
from widthcalc.exponent import build_objective
from widthcalc.finitedim import BallSpec, IntersectionSpec
from widthcalc.params import MAX_DIMENSION, ParameterError, ProblemSpec, as_fraction, piece_rows
from widthcalc.values import INF

rationals = st.fractions(min_value=F(1, 8), max_value=F(8), max_denominator=12)


def harmonic_mean(values) -> F:
    """Harmonic mean <ā> = d / Σ 1/a_j of positive rationals."""
    vals = [as_fraction(v) for v in values]
    if not vals:
        raise ParameterError("harmonic mean of an empty tuple")
    for v in vals:
        if v <= 0:
            raise ParameterError(f"harmonic mean needs positive entries, got {v}")
    return F(len(vals)) / sum(F(1) / v for v in vals)


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
    flipped = permuted(spec, (1, 0))
    assert flipped.compact_margin() == spec.compact_margin()
    # <r̄>/d = D/total and <p̄ ∘ r̄>/d = D/mixed.
    assert F(flipped.D, flipped.total) == F(spec.D, spec.total)
    assert F(flipped.D, flipped.mixed) == F(spec.D, spec.mixed)


def _shapes(spec):
    """The row shapes defined at q: the high shape needs q > 2."""
    return (False, True) if spec.q > 2 else (False,)


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_cached_invariants_equal_their_definitions(case):
    spec, _ = case
    d = spec.d
    assert spec.D % 2 == 0 and spec.Q == spec.D / spec.q
    rm = harmonic_mean(spec.r)
    prm = harmonic_mean([p * r for p, r in zip(spec.p, spec.r)])
    assert F(d * spec.D, spec.total) == rm
    assert F(d * spec.D, spec.mixed) == prm
    assert spec.compact_margin() == rm / d + 1 / spec.q - rm / prm
    inv_r_sum = sum(1 / r for r in spec.r)
    mixed = sum((1 / p) / r for p, r in zip(spec.p, spec.r))
    assert spec.compact_margin() == (1 - mixed) / inv_r_sum + 1 / spec.q
    assert spec.reg_sums == tuple(
        sum((1 / spec.r[i]) * (1 / spec.p[i] - 1 / spec.p[j]) for i in range(d))
        for j in range(d)
    )
    assert spec.X == tuple(spec.D / p for p in spec.p)
    assert spec.total == spec.D * inv_r_sum
    assert spec.mixed == spec.D * mixed
    for high in _shapes(spec):
        assert spec.rate_rows(high) == reference_rate_rows(spec, high)
        assert spec.rate_rows(high) is spec.rate_rows(high)  # built once


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_equal_specs_stay_equal_whatever_their_caches_hold(case):
    spec, _ = case
    twin = ProblemSpec(r=spec.r, p=spec.p, q=spec.q)
    for high in _shapes(spec):
        spec.rate_rows(high)  # only one of the two has its row tables filled
    assert spec == twin and hash(spec) == hash(twin)
    assert repr(spec) == repr(twin) == f"ProblemSpec(r={spec.r!r}, p={spec.p!r}, q={spec.q!r})"
    assert str(spec) == str(twin)
    assert len({spec, twin}) == 1


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_a_spec_hashes_its_field_tuple_once(case):
    spec, _ = case
    twin = ProblemSpec(r=spec.r, p=spec.p, q=spec.q)
    assert hash(spec) == hash((spec.r, spec.p, spec.q)) == hash(twin)
    assert spec == twin and not spec != twin
    assert spec != ProblemSpec(r=spec.r, p=spec.p, q=spec.q + 1)
    first = hash(spec), hash(twin)

    def refused(self):
        raise AssertionError(f"hashed the Fraction {self}")

    # Kept: a second hash reads no `Fraction` hash.
    real = F.__hash__
    F.__hash__ = refused
    try:
        assert (hash(spec), hash(twin)) == first
    finally:
        F.__hash__ = real


@settings(max_examples=40, deadline=None)
@given(wide_specs())
def test_permuted_spec_derives_its_own_invariants(case):
    spec, order = case
    spec.rate_rows(False)  # a filled cache on the original must not leak
    moved = permuted(spec, order)
    assert (moved.D, moved.Q) == (spec.D, spec.Q)
    assert moved.X == tuple(spec.X[i] for i in order)
    assert moved.reg_sums == tuple(spec.reg_sums[i] for i in order)
    assert moved.compact_margin() == spec.compact_margin()
    for high in _shapes(moved):
        assert moved.rate_rows(high) == reference_rate_rows(moved, high)


def _rows(spec, high):
    """`piece_rows` at (x̄, 1/q) in the `Fraction` form of `plain_piece_rows`."""
    return [fraction_row(row) for row in piece_rows(*scaled(*reciprocals(spec)), high)]


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
        spec.rate_rows(True)
    with pytest.raises(ParameterError):
        piece_rows(spec.X, spec.Q, spec.D, high=True)
    assert spec.rate_rows(False)[1]  # the low shape stays defined


def test_low_q_partition_worked_example():
    spec = ProblemSpec(r=(F(1), F(1)), p=(F(3), F(3, 2)), q=F(2))
    one, zero = (F(1),), F(0)
    assert _rows(spec, high=False) == [
        ("large-p", (0,), one, zero, zero, F(1, 6)),
        ("small-p", (1,), one, F(-1, 6), zero, zero),
        ("cross-lambda", (0, 1), (F(1, 2), F(1, 2)), zero, zero, zero),
    ]
    # x̄ = (2, 4)/6 and 1/q = 3/6: each row over its own den.
    assert (spec.X, spec.Q, spec.D) == ((2, 4), 3, 6)
    assert piece_rows(spec.X, spec.Q, spec.D, high=False) == [
        ("large-p", (0,), 6, (6,), 0, 0, 1),
        ("small-p", (1,), 6, (6,), -1, 0, 0),
        ("cross-lambda", (0, 1), 4, (2, 2), 0, 0, 0),
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
def threshold_triples(draw):
    """(r̄, p̄, q) in `Fraction`s at d = 2..16, whose p_j may sit on q or on 2."""
    d = draw(st.integers(2, MAX_DIMENSION))
    q = 1 + draw(rationals)
    p = st.one_of(rationals.map(lambda x: 1 + x), st.just(q), st.just(F(2)))
    r = [x + F(1, 8) for x in draw(st.lists(rationals, min_size=d, max_size=d))]
    return r, draw(st.lists(p, min_size=d, max_size=d)), q


def threshold_specs():
    return threshold_triples().map(lambda triple: ProblemSpec(*triple))


def _all_integers(rows):
    return all(type(v) is int for row in rows for v in (row[2], *row[3], *row[4:]))


@settings(max_examples=60, deadline=None)
@given(threshold_specs())
def test_spec_invariants_match_plain_fraction_formulas(spec):
    d, r, p, q = spec.d, spec.r, spec.p, spec.q
    assert spec.X == tuple(spec.D * (F(1) / pj) for pj in p)
    assert spec.Q == spec.D * (F(1) / q) and spec.D % 2 == 0
    assert spec.reg_sums == tuple(
        sum((F(1) / r[i]) * (F(1) / p[i] - F(1) / p[j]) for i in range(d)) for j in range(d)
    )
    r_mean = d / sum(F(1) / rj for rj in r)
    pr_mean = d / sum(F(1) / (pj * rj) for pj, rj in zip(p, r))
    assert F(d * spec.D, spec.total) == r_mean and F(d * spec.D, spec.mixed) == pr_mean
    assert spec.compact_margin() == r_mean / d + F(1) / q - r_mean / pr_mean
    assert all(type(v) is int for v in (spec.D, *spec.X, spec.Q, spec.total, spec.mixed))
    assert all(type(v) is F for v in spec.reg_sums)
    for high in _shapes(spec):
        assert _rows(spec, high) == plain_piece_rows([F(1) / pj for pj in p], F(1) / q, high)
        assert spec.rate_rows(high) == reference_rate_rows(spec, high)


class _RefusedFraction(type):
    """Stands in for `params.Fraction`: `isinstance` answers as for
    `Fraction`, and building one fails."""

    def __instancecheck__(cls, value):
        return isinstance(value, F)

    def __call__(cls, *args):
        raise AssertionError(f"params built a Fraction{args}")


class _NoFraction(metaclass=_RefusedFraction):
    pass


@settings(max_examples=60, deadline=None)
@given(threshold_triples())
def test_specs_and_their_row_tables_build_no_fraction_in_params(triple):
    """From `Fraction` inputs, a spec puts 1/p̄, 1/q and 1/2 on its integer
    scale and fills the row tables of both shapes without one `Fraction`
    built in `params`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(params, "Fraction", _NoFraction)
        spec = ProblemSpec(*triple)
        tables = [spec.rate_rows(high) for high in _shapes(spec)]
    assert tables == [reference_rate_rows(spec, high) for high in _shapes(spec)]


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
        rows = piece_rows(*scaled(x, x_q), high)
        assert [fraction_row(row) for row in rows] == plain_piece_rows(x, x_q, high)
        assert _all_integers(rows)


@st.composite
def threshold_tables(draw):
    """A spec at d = 2..16 with p_j on q, on 2 or off both, and ball
    intersections of the same d in the q ≤ 2 and the q > 2 window, whose
    exponents may also be ∞."""
    d = draw(st.integers(2, MAX_DIMENSION))
    q = draw(st.sampled_from([F(2), 1 + draw(rationals) / 8, F(9, 4) + draw(rationals)]))
    p = st.one_of(rationals.map(lambda x: 1 + x), st.just(q), st.just(F(2)))
    spec = ProblemSpec(
        r=[x + F(1, 8) for x in draw(st.lists(rationals, min_size=d, max_size=d))],
        p=draw(st.lists(p, min_size=d, max_size=d)),
        q=q,
    )
    ball = st.tuples(st.one_of(p, st.just(INF)), rationals)
    balls = [BallSpec(*b) for b in draw(st.lists(ball, min_size=d, max_size=d))]
    # n = N/2 = 2^11 is in the q > 2 window N^(2/q) ≤ n for every q ≥ 9/4.
    return spec, IntersectionSpec(N=1 << 12, n=1 << 11, q=q, balls=balls)


@settings(max_examples=40, deadline=None)
@given(threshold_tables())
def test_integer_piece_tables_equal_the_fraction_reference(case):
    """`rate_rows`, the tags of `build_objective` and the intersection terms,
    all built from `piece_rows`' integers, against the same tables built
    from `plain_piece_rows` one `Fraction` at a time."""
    spec, balls = case
    for high in _shapes(spec):
        assert spec.rate_rows(high) == reference_rate_rows(spec, high)
    L, rows = reference_rate_rows(spec, spec.q > 2)
    obj = build_objective(spec)
    assert obj.L == L
    assert [tag for tag, _ in obj.pieces] == [tag for tag, _ in rows]
    assert balls.terms == reference_terms(balls)
