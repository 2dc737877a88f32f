"""The piecewise objective and its exact LP minimisation."""

import dataclasses
import operator
from contextlib import contextmanager
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from _reference import (
    D16_ANCHORS,
    catalog_argvs,
    check_compact,
    permuted,
    plain_piece_rows,
    reciprocals,
    threshold_specs,
    units,
)
from hypothesis import strategies as st

import widthcalc._simplex as simplex
import widthcalc.exponent as exponent
import widthcalc.oracle as oracle
import widthcalc.params as params
from widthcalc._simplex import solve_lp
from widthcalc.exponent import build_objective, minimize
from widthcalc.oracle import Lcg, check_certificate
from widthcalc.params import MAX_DIMENSION, ProblemSpec, over_one_denominator

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


@contextmanager
def _lp_counter():
    """A list that gains one entry per LP `minimize` solves inside the block."""
    calls = []
    real = exponent.solve_lp

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    exponent.solve_lp = counted
    try:
        yield calls
    finally:
        exponent.solve_lp = real


def _epigraph_rows(spec):
    """The epigraph LP, built here from `plain_piece_rows` in `Fraction`s.

    (cost, A_eq, b_eq, A_ub, b_ub) over α [, σ], t⁺, t⁻ with s = 1 + σ and
    t = t⁺ − t⁻: Σα − σ = 1, then σ ≤ q/2 − 1, then piece ≤ t per row, the
    piece being Σ w_i r_i α_i + t_coeff·s + logn_coeff, with s = 1 when q ≤ 2.
    """
    d, high = spec.d, spec.q > 2
    eq = [F(1)] * d + [F(-1)] * high + [F(0), F(0)]
    A_ub, b_ub = [], []
    if high:
        A_ub.append([F(0)] * d + [F(1), F(0), F(0)])
        b_ub.append(spec.q / 2 - 1)
    for _, idx, weights, t_coeff, logn_coeff, _ in plain_piece_rows(*reciprocals(spec), high):
        coeffs = [F(0)] * d
        for i, w in zip(idx, weights):
            coeffs[i] = w * spec.r[i]
        A_ub.append(coeffs + [t_coeff] * high + [F(-1), F(1)])
        b_ub.append(-t_coeff - logn_coeff)
    cost = [F(0)] * (len(eq) - 2) + [F(1), F(-1)]
    return cost, [eq], [F(1)], A_ub, b_ub


def _face_is_a_point(spec, theta):
    """Reference verdict: probe each coordinate over the optimal face.

    The face is the epigraph LP's feasible set with t⁺ − t⁻ = θ added:
    every point of the domain has objective ≥ θ, so pieces ≤ θ pins it
    exactly.  It is a point iff every coordinate of (ᾱ, σ) has equal
    minimum and maximum over it, up to 2(d + 1) LPs.  The t⁺/t⁻ columns are
    not probed; only their difference is fixed.
    """
    cost, A_eq, b_eq, A_ub, b_ub = _epigraph_rows(spec)
    n = len(cost)
    A_eq, b_eq = A_eq + [[F(0)] * (n - 2) + [F(1), F(-1)]], b_eq + [theta]
    for var in range(n - 2):
        c = [F(0)] * n
        c[var] = F(1)
        lo = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
        c[var] = F(-1)
        hi = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
        assert lo.status == hi.status == "optimal"
        if lo.value != -hi.value:
            return False
    return True


def test_flat_objective_reports_non_unique_argmin():
    # r = (2, 2), p = (3, 3/2), q = 2 ties theta1 with the margin: the
    # optimal face is a segment, not a point.  The tableau leaves a free
    # column, so one LP over the optimal face decides.
    spec = _spec((2, 2), (3, "3/2"), 2)
    obj = build_objective(spec)
    with _lp_counter() as lps:
        res = minimize(obj)
    assert res.theta == F(1)
    assert len(lps) == 2
    assert not res.unique
    assert not _face_is_a_point(spec, res.theta)
    # The reported argmin is the vertex the epigraph solve stops at.
    assert res.argmin_alpha == (F(1, 2), F(1, 2))
    assert res.active_pieces == (("large-p", (0,)), ("cross-lambda", (0, 1)))


def test_generic_objective_is_certified_without_probes():
    with _lp_counter() as lps:
        res = minimize(build_objective(_spec((1, 1), (3, 3), 2)))
    assert res.unique and len(lps) == 1


def test_a_replaced_result_keeps_its_weights():
    # The tableau behind `weights` is a field, so a `dataclasses.replace`
    # copy reads the same weights; it takes no part in == or repr.
    for spec in (_spec((1, 1), (3, 3), 2), _spec((2, 1), (8, "3/2"), 4)):
        res = minimize(build_objective(spec))
        copy = dataclasses.replace(res, theta=res.theta + 1)
        assert copy.weights == res.weights and copy.theta == res.theta + 1
        assert dataclasses.replace(res) == res and "_tableau" not in repr(res)


def test_weights_are_read_off_the_integer_reduced_cost_row(monkeypatch):
    # `weights` reads only the piece slacks' integers off the tableau: with
    # `LpResult.reduced_costs`, which builds a `Fraction` per column, made to
    # raise, it still gives the values it gave before, in piece order.
    results = [minimize(build_objective(spec))
               for spec in _seeded_specs(Lcg(31), per_side=3, dims=range(2, 9))]
    before = [res.weights for res in results]
    assert all(before)

    def refused(self):
        raise AssertionError("weights read LpResult.reduced_costs")

    monkeypatch.setattr(simplex.LpResult, "reduced_costs", property(refused))
    with pytest.raises(AssertionError):
        results[0]._tableau[0].reduced_costs
    assert [res.weights for res in results] == before


def _seeded_specs(rng, per_side, dims=range(3, 9)):
    for d in dims:
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
    certified = faced_unique = 0
    specs = list(_seeded_specs(Lcg(2024), per_side=2))
    for spec in specs:
        obj = build_objective(spec)
        with _lp_counter() as lps:
            res = minimize(obj)
        assert res.theta == solve_lp(*_epigraph_rows(spec)).value
        probed = _face_is_a_point(spec, res.theta)
        assert res.unique == probed, spec
        assert len(lps) <= 2
        if len(lps) == 1:
            certified += 1
            assert probed, spec
        elif probed:
            faced_unique += 1
    assert certified >= len(specs) // 2
    print(f"PASS: {certified} of {len(specs)} specs certified by the tableau, "
          f"{faced_unique} unique by the face LP")


@pytest.mark.parametrize(
    "r,p,q,theta,unique,compact",
    D16_ANCHORS,
    ids=["q5-noncompact", "q7_4-straddle", "q2-flat"],
)
def test_d16_exponents_match_frozen_anchors(r, p, q, theta, unique, compact):
    spec = _spec(r.split(","), p.split(","), q)
    assert spec.d == 16
    assert min(spec.p) < spec.q < max(spec.p)
    if spec.q > 2:
        assert min(spec.p) < 2 < max(spec.p)
    with _lp_counter() as lps:
        res = minimize(build_objective(spec))
    assert res.theta == theta
    assert res.unique is unique
    assert len(lps) <= 2
    assert check_certificate(spec, res) == []
    assert check_compact(spec) is compact


def test_d16_piece_tables_build_without_a_fraction_in_params(monkeypatch):
    """`rate_rows` and `build_objective` run on the integers of
    `params.piece_rows`: at the d = 16 anchors not one `Fraction` is built
    in `params` once the specs exist."""
    specs = [_spec(r.split(","), p.split(","), q) for r, p, q, *_ in D16_ANCHORS]

    def refused(*args):
        raise AssertionError(f"params built a Fraction{args}")

    monkeypatch.setattr(params, "Fraction", refused)
    for spec in specs:
        for high in (False, True) if spec.q > 2 else (False,):
            assert spec.rate_rows(high)[1]
        assert build_objective(spec).pieces


@st.composite
def regular_specs(draw):
    """Specs at d = 2..16 whose regularity sums M_j all stay below 1.

    Half keep p̄ in a narrow band below q: only there can a regular spec
    have a negative margin.  When some M_j reaches 1, r̄ is scaled up by
    2·max M_j, which divides every M_j by that factor.
    """
    d = draw(st.integers(2, MAX_DIMENSION))
    q = 1 + 6 * draw(units)
    if draw(st.booleans()):
        low = 1 + (q - 1) * draw(units)
        p = [low + (q - low) * draw(units) / 4 for _ in range(d)]
    else:
        p = [1 + (2 * q + 3) * draw(units) for _ in range(d)]
    r = [4 * draw(units) for _ in range(d)]
    spec = ProblemSpec(r=r, p=p, q=q)
    worst = max(spec.reg_sums)
    if worst >= 1:
        spec = ProblemSpec(r=[2 * worst * v for v in r], p=p, q=q)
    return spec


@settings(max_examples=60, deadline=None)
@given(regular_specs())
def test_lp_sign_matches_the_margin_when_every_regularity_sum_is_below_one(spec):
    assert max(spec.reg_sums) < 1
    res = minimize(build_objective(spec))
    assert check_certificate(spec, res) == []
    theta = res.theta
    margin = spec.compact_margin()
    assert (theta > 0) == (margin > 0) and (theta < 0) == (margin < 0), (spec, theta, margin)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(rationals, rationals),
    st.tuples(rationals.map(lambda x: 1 + x), rationals.map(lambda x: 1 + x)),
    rationals.map(lambda x: 1 + x),
)
def test_minimum_is_invariant_under_coordinate_swap(r, p, q):
    spec = ProblemSpec(r=r, p=p, q=q)
    flipped = permuted(spec, (1, 0))
    assert (
        minimize(build_objective(spec)).theta
        == minimize(build_objective(flipped)).theta
    )


def _solve_from_artificials(spec):
    """The epigraph LP with every row an equality over an explicit slack.

    Every row then starts phase 1 on an artificial.
    """
    cost, A_eq, b_eq, A_ub, b_ub = _epigraph_rows(spec)
    k = len(A_ub)
    rows = [row + [F(0)] * k for row in A_eq]
    rows += [row + [F(int(i == j)) for i in range(k)] for j, row in enumerate(A_ub)]
    return solve_lp(cost + [F(0)] * k, rows, b_eq + b_ub)


@settings(max_examples=40, deadline=None)
@given(threshold_specs())
@example(_spec((2, 2), (3, "3/2"), 2))  # flat: the optimal face is a segment
@example(_spec((3, "1/3", "11/3"), ("19/3", "3/2", "29/6"), "19/3"))  # θ = 0 on a face
@example(_spec((1, 2), (6, "3/2"), 3))  # a zero reduced cost, yet the face is a point
@example(_spec((1, 1), (3, 3), 4))  # q > 2, every p_j between 2 and q
@example(_spec((1, 2), ("3/2", "5/4"), 3))  # every p_j below 2
@example(_spec((1, 1), (5, "7/2"), 3))  # p_j above q and between 2 and q
@example(_spec((2, 1), (8, "3/2"), 4))  # p̄ straddles both 2 and q
@example(_spec((1, 3), (6, "4/3"), "7/2"))
def test_active_pieces_and_verdict_agree_with_an_all_artificial_solve(spec):
    with _lp_counter() as lps:
        res = minimize(build_objective(spec))
    assert len(lps) <= 2
    assert check_certificate(spec, res) == []
    # Each oracle row's value at (ᾱ, s) is an integer over L·E, s = 1 when q ≤ 2.
    high = spec.q > 2
    L, rows = oracle._table(spec, high)
    E, point = over_one_denominator((*res.argmin_alpha, res.argmin_s if high else F(1), F(1)))
    values = {tag: F(sum(map(operator.mul, c, point)), L * E) for tag, c in rows}
    assert len(set(res.active_pieces)) == len(res.active_pieces)
    assert set(res.active_pieces) == {tag for tag, v in values.items() if v == res.theta}
    ref = _solve_from_artificials(spec)
    assert ref.value == res.theta
    unique = _face_is_a_point(spec, ref.value)
    assert unique is res.unique
    if unique:
        assert ref.x[: spec.d] == res.argmin_alpha
        assert (1 + ref.x[spec.d] if high else None) == res.argmin_s


def _reference_result(spec):
    """`minimize`'s fields derived again from a plain `solve_lp` result of the
    same epigraph LP, through its `x`, `value` and `reduced_costs` alone.

    The active pieces are those whose ≤ row has a zero slack b − A·x; the
    argmin is unique when no nonbasic column other than t⁺/t⁻ has reduced
    cost 0, and otherwise when every coordinate of (ᾱ, σ) is pinned on the
    optimal face (`_face_is_a_point`); λ_k is the reduced cost of piece k's
    slack times its row's t⁻ coefficient.
    """
    obj = build_objective(spec)
    cost, A_eq, b_eq, A_ub, b_ub = exponent._epigraph_lp(obj)
    res = solve_lp(cost, A_eq, b_eq, A_ub, b_ub)
    d, n, k = spec.d, len(cost), len(obj.pieces)
    x, theta, rc = res.x, res.value, res.reduced_costs
    slack = [b - sum(a * v for a, v in zip(row, x)) for row, b in zip(A_ub, b_ub)]
    free = [
        j for j in range(n + len(A_ub))
        if j not in res.basis and rc[j] == 0 and j not in (n - 2, n - 1)
    ]
    return dict(
        theta=theta,
        argmin_alpha=x[:d],
        argmin_s=1 + x[d] if obj.has_s else None,
        unique=not free or _face_is_a_point(spec, theta),
        active_pieces=tuple(tag for (tag, _), v in zip(obj.pieces, slack[-k:]) if v == 0),
        weights=tuple(
            (tag, r * row[-1]) for (tag, _), r, row in zip(obj.pieces, rc[-k:], A_ub[-k:]) if r
        ),
    )


def _assert_matches_the_plain_solve(spec):
    res = minimize(build_objective(spec))
    mine = {name: getattr(res, name) for name in (
        "theta", "argmin_alpha", "argmin_s", "unique", "active_pieces", "weights"
    )}
    assert mine == _reference_result(spec), spec
    assert sum(w for _, w in res.weights) == 1


def _argv_spec(argv):
    """The spec of an `exponent --r … --p … --q …` argv."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return _spec(opts["--r"].split(","), opts["--p"].split(","), opts["--q"])


def test_minimize_reads_what_a_plain_solve_reads_on_the_exponent_catalog():
    specs = [_argv_spec(argv) for argv in catalog_argvs() if argv[0] == "exponent"]
    assert len(specs) == 592
    for spec in specs:
        _assert_matches_the_plain_solve(spec)


@settings(max_examples=60, deadline=None)
@given(threshold_specs())
@example(_spec((2, 2), (3, "3/2"), 2))  # flat: the optimal face is a segment
def test_minimize_reads_what_a_plain_solve_reads_at_thresholds(spec):
    _assert_matches_the_plain_solve(spec)


@pytest.mark.parametrize(
    "r,p,q",
    [
        ((1, 1), (3, 3), 2),  # θ > 0, both α nonzero
        ((1, "1/4"), (8, "8/5"), 2),  # a zero α
        (("3/2", "5/4"), ("7/2", "5/3"), "9/4"),  # q > 2: σ and s
        ((1, 1), (3, 3), 4),  # q > 2 with s = 1, so σ = 0
        ((1, 1), ("3/2", "3/2"), "7/4"),
    ],
)
def test_a_d2_minimize_builds_only_theta_s_and_the_nonzero_alpha(monkeypatch, r, p, q):
    """With the `Fraction` of `_simplex` and `exponent` counted, a d = 2
    `minimize` builds θ, s when q > 2, and each nonzero α_j, and nothing for
    a zero value, σ, t⁺ or t⁻."""
    obj = build_objective(_spec(r, p, q))
    built = []

    def counted(*args):
        built.append(F(*args))
        return built[-1]

    monkeypatch.setattr(simplex, "Fraction", counted)
    monkeypatch.setattr(exponent, "Fraction", counted)
    res = minimize(obj)
    monkeypatch.undo()
    assert res.unique  # the tableau decides: no face LP runs
    expected = [res.theta, *(a for a in res.argmin_alpha if a)]
    if obj.has_s:
        expected.append(res.argmin_s)
    assert sorted(built) == sorted(expected)
