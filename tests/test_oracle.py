"""The grid oracle, scaling-identity checks, and cross-validation reports."""

import contextlib
import dataclasses
import io
import itertools
import math
import os
import subprocess
import sys
import time
from collections import Counter
from fractions import Fraction as F
from pathlib import Path
from types import SimpleNamespace

import pytest
from _reference import sample_intersection
from hypothesis import given, settings
from hypothesis import strategies as st

import widthcalc.closedform as closedform
import widthcalc.oracle as oracle
import widthcalc.params as params
from widthcalc.cli import main
from widthcalc.closedform import classify_regime
from widthcalc.exponent import build_objective, minimize
from widthcalc.finitedim import intersection_order
from widthcalc.oracle import (
    BRANCH_LABELS,
    SCREEN_LABEL,
    Lcg,
    check_certificate,
    check_scaling_identities,
    cross_validate,
    default_grid,
    grid_minimize,
    sample_branch,
)
from widthcalc.params import ParameterError, ProblemSpec


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
        ("1/4", "9/2", 12), ("-3", F(5, 7), 9), (2, "13/3", 7),
        (0, 4, 1), (F(-5, 2), "3/2", 1), ("1/2", 3, 1),
    ]
    fast, slow = Lcg(77), Lcg(77)
    for k in range(10_000):
        lo, hi, max_den = intervals[k % len(intervals)]
        assert fast.fraction_between(lo, hi, max_den) == _fraction_between_reference(
            slow, lo, hi, max_den
        ), k
    for lo, hi in ((0.5, 2), (0, 2.0)):
        with pytest.raises(ParameterError, match="got float"):
            fast.fraction_between(lo, hi)


def test_fraction_between_rejects_empty_intervals():
    with pytest.raises(ParameterError, match=r"^empty interval \(1/2, 1/2\)$"):
        Lcg(0).fraction_between(F(1, 2), F(1, 2))
    with pytest.raises(ParameterError, match=r"^empty interval \(3, 5/2\)$"):
        Lcg(0).fraction_between(3, "5/2")
    with pytest.raises(ParameterError, match=r"^no rational with denominator ≤ 1 in \(1/3, 1/2\)$"):
        Lcg(0).fraction_between(F(1, 3), F(1, 2), max_den=1)


# ---------------------------------------------------------------------------
# the integer piece tables against a plain-Fraction reference


def _reference_pieces(spec, high):
    """The oracle's pieces from their defining formulas, one `Fraction` per
    coefficient: (tag, coefficient map, s slope, constant), in table order.
    `high` False gives the low-q shape at any q, True the q > 2 objective."""
    x_q = 1 / spec.q
    x = [1 / pj for pj in spec.p]
    half, zero = F(1, 2), F(0)
    pieces = []
    for j in range(spec.d):
        if x[j] <= x_q:
            pieces.append((("large-p", (j,)), {j: spec.r[j]}, zero, zero))
        if not high and x[j] >= x_q:
            pieces.append((("small-p", (j,)), {j: spec.r[j]}, zero, x_q - x[j]))
        if high and x_q <= x[j] <= half:
            cj = (x[j] - x_q) / (half - x_q)
            pieces.append((("mid-p", (j,)), {j: spec.r[j]}, -cj / 2, cj / 2))
        if high and x[j] >= half:
            pieces.append((("small-p", (j,)), {j: spec.r[j]}, -x[j], half))
    crossings = [("cross-lambda", x_q, zero, zero)]
    if high:
        crossings.append(("cross-mu", half, -half, half))
    for family, level, s_coeff, const in crossings:
        for i in range(spec.d):
            for j in range(spec.d):
                if x[i] < level < x[j]:
                    w = (level - x[i]) / (x[j] - x[i])
                    coeffs = {i: (1 - w) * spec.r[i], j: w * spec.r[j]}
                    pieces.append(((family, (i, j)), coeffs, s_coeff, const))
    return pieces


def _reference_value(piece, alpha, s):
    _, coeffs, s_coeff, const = piece
    return const + s_coeff * s + sum(c * alpha[j] for j, c in coeffs.items())


def _table_value(table, coords):
    """The largest row of an oracle table (L, rows) at the rationals
    `coords` = (α_1, …, α_d, s, 1)."""
    L, rows = table
    return max(sum(F(c, L) * v for c, v in zip(coeffs, coords)) for _, coeffs in rows)


def _threshold_specs(rng, per_d=3):
    """Specs at d = 2..16 on both sides of q = 2, q = 2 itself, and p_j on
    the thresholds q and 2."""
    for d in range(2, 17):
        for k in range(per_d):
            q = (F(2), rng.fraction_between(1, 2), rng.fraction_between(2, 6))[k % 3]
            p = [
                (q, F(2), rng.fraction_between(1, q + 4))[rng.rand_below(3)]
                for _ in range(d)
            ]
            r = [rng.fraction_between(F(1, 4), 4) for _ in range(d)]
            yield ProblemSpec(r=r, p=p, q=q)


def test_integer_tables_equal_the_fraction_reference():
    rng = Lcg(31)
    shapes = Counter()
    for spec in _threshold_specs(rng):
        assert F(2) in spec.p or spec.q in spec.p or spec.q == 2
        for high in (False, True) if spec.q > 2 else (False,):
            table = oracle._table(spec, high)
            L, rows = table
            ref = _reference_pieces(spec, high)
            assert [tag for tag, _ in rows] == [pc[0] for pc in ref]
            for (_, coeffs), (_, cmap, s_coeff, const) in zip(rows, ref):
                dense = [cmap.get(j, 0) for j in range(spec.d)] + [s_coeff, const]
                assert [F(c, L) for c in coeffs] == dense
            for _ in range(4):
                alpha = tuple(rng.fraction_between(0, 3) for _ in range(spec.d))
                s = rng.fraction_between(1, 5)
                expected = max(_reference_value(pc, alpha, s) for pc in ref)
                coords = (*alpha, s, 1) if high else (*alpha, 0, 1)
                assert _table_value(table, coords) == expected
            shapes[spec.d, high] += 1
        assert check_scaling_identities(spec, points=2, seed=spec.d).ok, spec
    assert len({d for d, _ in shapes}) == 15 and shapes[16, True] >= 1


def test_objective_rows_equal_the_oracle_tables():
    """`build_objective`'s rows, read at (α_1, …, α_d, s, 1), against the
    oracle's own table of the shape of q, exactly and tag by tag; the low
    table puts a constant in the 1 column where `rate_rows` has it on s,
    and s = 1 when q ≤ 2, so there the two columns are compared summed."""
    specs = [
        _spec((2, 1), (8, "3/2"), 4),
        _spec((1, 1), (3, 5), 4),
        _spec((1, 2), ("7/4", "5/4"), 3),
        _spec(("1/2", 3), (9, "4/3"), "5/2"),
        _spec((2, 1), (3, "3/2"), 2),
        *_threshold_specs(Lcg(33)),
    ]
    shapes = Counter()
    for spec in specs:
        obj = build_objective(spec)
        high, d = spec.q > 2, spec.d
        L, rows = oracle._table(spec, high)
        ours = dict(obj.pieces)
        assert len(ours) == len(obj.pieces) == len(rows), spec
        for tag, coeffs in rows:
            mine = [F(c, obj.L) for c in ours[tag]]
            theirs = [F(c, L) for c in coeffs]
            if not high:
                mine[d:] = [mine[d] + mine[d + 1]]
                theirs[d:] = [theirs[d] + theirs[d + 1]]
            assert mine == theirs, (spec, tag)
        shapes[d, spec.q < 2, spec.q == 2] += 1
    assert len(shapes) == 45


def test_certificate_mutants_are_caught():
    rng = Lcg(32)
    for spec in _threshold_specs(rng, per_d=1):
        res = minimize(build_objective(spec))
        assert check_certificate(spec, res) == [], spec
        fields = dict(
            theta=res.theta, weights=res.weights, argmin_alpha=res.argmin_alpha,
            argmin_s=res.argmin_s, active_pieces=res.active_pieces,
        )
        (tag, w), *rest = res.weights
        flipped = SimpleNamespace(**{**fields, "weights": ((tag, -w), *rest)})
        assert check_certificate(spec, flipped), spec
        off = SimpleNamespace(**{**fields, "theta": res.theta + 1})
        assert check_certificate(spec, off), spec
        # The LP without its top-weighted piece has its own certificate,
        # which the full objective refutes.
        top = max(res.weights, key=lambda tw: tw[1])[0]
        obj = build_objective(spec)
        dropped = dataclasses.replace(
            obj, pieces=tuple((tag, row) for tag, row in obj.pieces if tag != top)
        )
        assert check_certificate(spec, minimize(dropped)), spec


def test_a_wrong_rate_rows_weight_fails_the_certificate(monkeypatch):
    real = params.ProblemSpec.rate_rows

    def wrong(spec, high):
        L, ((tag, first), *rows) = real(spec, high)
        j = next(j for j, c in enumerate(first) if c)  # the row's first α column
        return L, ((tag, (*first[:j], 2 * first[j], *first[j + 1 :])), *rows)

    specs = [*_threshold_specs(Lcg(32), per_d=1), _spec((2, 1), (8, "3/2"), 4)]
    specs.append(_spec((1, 2), ("7/4", "5/4"), "3/2"))
    assert {spec.q > 2 for spec in specs} == {False, True} and min(s.q for s in specs) < 2
    monkeypatch.setattr(params.ProblemSpec, "rate_rows", wrong)
    for spec in specs:
        assert check_certificate(spec, minimize(build_objective(spec))), spec


def test_a_wrong_piece_rows_weight_fails_the_identities(monkeypatch):
    real = params.piece_rows

    def wrong(X, Q, D, high):
        (family, idx, den, weights, *rest), *others = real(X, Q, D, high)
        return [(family, idx, den, (2 * weights[0], *weights[1:]), *rest), *others]

    monkeypatch.setattr(params, "piece_rows", wrong)
    report = check_scaling_identities(_spec((2, 1), (8, "3/2"), 4), points=40, seed=3)
    assert not report.ok and report.checked == 160


@pytest.mark.parametrize("shape", [False, True], ids=["low-row", "high-row"])
def test_a_wrong_oracle_row_weight_fails_the_identities(monkeypatch, shape):
    real = oracle._table

    def wrong(spec, high):
        L, ((tag, coeffs), *rows) = real(spec, high)
        if high is shape:
            coeffs = (*(2 * c for c in coeffs[: spec.d]), *coeffs[spec.d :])
        return L, ((tag, coeffs), *rows)

    monkeypatch.setattr(oracle, "_table", wrong)
    report = check_scaling_identities(_spec((2, 1), (8, "3/2"), 4), points=40, seed=3)
    assert not report.ok and report.checked == 160


# ---------------------------------------------------------------------------
# grid brackets


def test_default_grid_scales_with_dimension():
    assert default_grid(2) == 128
    assert [default_grid(d) for d in (1, 5, 16)] == [64, 320, 1024]
    assert grid_minimize(_spec((1, 1), (3, 3), 2)).grid == 128


def test_bracket_on_the_balanced_pair():
    bracket = grid_minimize(_spec((1, 1), (3, 3), 2), grid=100)
    assert bracket.best_value == F(1, 2)
    assert bracket.gap == F(1, 50)
    assert bracket.lower == F(12, 25)
    assert bracket.points == 101
    assert bracket.contains(F(1, 2))
    assert bracket.contains(bracket.lower)
    assert not bracket.contains(F(1, 4))
    # 2^21 + 1 lattice points, far more than listing them would allow.
    huge = grid_minimize(_spec((1, 1), (3, 3), 2), grid=1 << 21)
    assert huge.best_value == F(1, 2) and huge.points == (1 << 21) + 1


def test_refinement_shrinks_the_gap_fourfold():
    spec = _spec((1, 1), (3, 3), 2)
    first = grid_minimize(spec, grid=100)
    finer = grid_minimize(spec, 4 * first.grid)
    assert finer.grid == 400
    assert finer.gap == first.gap / 4
    assert finer.contains(F(1, 2))


def test_bracket_covers_the_lp_minimum_above_two():
    spec = _spec((1, 1), (3, 3), 4)
    bracket = grid_minimize(spec, grid=64)
    assert bracket.argmin_s is not None
    assert bracket.contains(F(1, 2))


def _enumerated_bracket(spec, G):
    """The bracket by listing the whole lattice.

    ā runs over the compositions of each k in [G, K] (stars and bars),
    with K = ⌊qG/2⌋ for q > 2 and K = G otherwise; the minimum and its
    lexicographically least argmin come from exact evaluation of every
    point on the plain-`Fraction` reference pieces, and the gap from the
    Lipschitz formula over them.
    """
    d, q = spec.d, spec.q
    K = math.floor(q * G / 2) if q > 2 else G
    pieces = _reference_pieces(spec, q > 2)
    best, points = None, 0
    for k in range(G, K + 1):
        for bars in itertools.combinations(range(k + d - 1), d - 1):
            cuts = (-1,) + bars + (k + d - 1,)
            a = tuple(cuts[i + 1] - cuts[i] - 1 for i in range(d))
            alpha = tuple(F(x, G) for x in a)
            v = max(_reference_value(pc, alpha, F(k, G)) for pc in pieces)
            points += 1
            if best is None or (v, alpha) < best:
                best = (v, alpha)
    lip = sum(max(abs(cmap.get(j, 0)) for _, cmap, _, _ in pieces) for j in range(d))
    if q > 2:
        lip += max(abs(sc) for _, _, sc, _ in pieces)
    value, alpha = best
    return oracle.GridBracket(
        grid=G,
        best_value=value,
        gap=F(lip, G),
        argmin=alpha,
        argmin_s=sum(alpha) if q > 2 else None,
        points=points,
    )


def _small_specs():
    yield _spec((1, 1), (3, 3), 2), 7  # (3,4)/7 and (4,3)/7 tie
    yield _spec((1, 1), (3, 3), 2), 12
    for G in (7, 12, 16):
        yield _spec((1, 1), (3, 3), 4), G
    # Thresholds: p_1 = q, p_2 = 2, and q = 2 itself.
    for d, G in ((2, 12), (3, 9), (4, 5)):
        r = tuple(F(k + 2, 2) for k in range(d))
        for q in (F(7, 4), F(2), F(3)):
            yield ProblemSpec(r=r, p=(q, F(2), F(5), F(5, 4))[:d], q=q), G
    rng = Lcg(4242)
    for d, G in ((2, 12), (3, 9), (4, 5)):
        for high in (False, True):
            for _ in range(4):
                if high:
                    q = rng.fraction_between(2, 4, max_den=4)
                else:
                    q = F(2) if rng.rand_below(3) == 0 else rng.fraction_between(1, 2)
                # p_j < 2 gives pieces falling in s, so some minima sit at s > 1.
                p = tuple(
                    rng.fraction_between(1, 2 if rng.coin() else q + 4, max_den=4)
                    for _ in range(d)
                )
                r = tuple(rng.fraction_between(F(1, 2), 4, max_den=4) for _ in range(d))
                yield ProblemSpec(r=r, p=p, q=q), G


def test_branch_and_bound_matches_full_enumeration():
    checked = 0
    for spec, G in _small_specs():
        assert grid_minimize(spec, G) == _enumerated_bracket(spec, G), (spec, G)
        checked += 1
    assert checked == 38


# (spec, G, least budget answered): each budget was found by bisection on
# the plain bound-every-row branch and bound, so it is cells entered × pieces.
_BUDGET_CASES = [
    (_spec((1, 2), ("7/4", "5/4"), "3/2"), 128, 63),
    (_spec(("2391/16445", "5/2"), ("39/11", "115/12"), "11/2"), 256, 1026),  # 342 cells
    (_spec((1, 2, "3/2"), (3, "5/4", 6), "7/4"), 48, 200),
    (_spec((1, 2, "3/2"), (3, "5/4", 6), 3), 48, 371),
    (_spec((1, "1/2", 2, "5/4"), ("3/2", 5, 2, 7), 4), 24, 2464),
    (_spec((1, "1/2", 2, "5/4"), ("3/2", 5, "9/4", 7), "5/3"), 32, 420),
    (_spec((2, "1/2", 1, "3/2", "5/4"), (4, "6/5", "5/2", 8, 3), "9/4"), 16, 2106),
    (_spec((1, 2, "3/2", "3/4", 1, "5/2"), (3, "5/4", 6, "3/2", 4, 9), "7/4"), 12, 1274),
    (_spec((1, 2, "3/2", "3/4", 1, "5/2"), (3, "5/4", 6, "3/2", 4, 9), 3), 12, 4347),
]


@pytest.mark.parametrize(
    "spec,G,budget", _BUDGET_CASES, ids=[f"d{s.d}-q{s.q}-G{G}" for s, G, _ in _BUDGET_CASES]
)
def test_budget_counts_every_cell_entered(monkeypatch, spec, G, budget):
    """A cell dropped early still counts: each spec is answered at exactly its
    recorded budget and refused one piece bound below it."""
    monkeypatch.setattr(oracle, "_BUDGET", budget)
    assert grid_minimize(spec, G).grid == G
    monkeypatch.setattr(oracle, "_BUDGET", budget - 1)
    with pytest.raises(params.RangeError, match=f"more than {budget - 1} piece bounds"):
        grid_minimize(spec, G)


def test_float_inseparable_lattice_keeps_its_bracket():
    # The values on this lattice differ by less than 2^-47 times their term
    # magnitudes, so float64 cannot tell them apart.  The bracket was
    # recorded by evaluating all 66049 lattice points exactly.
    big = 1427247692705959880439315947500961989719490561
    spec = _spec((F(1, big), F(1, big)), ("9/5", 11), 6)
    start = time.perf_counter()
    bracket = grid_minimize(spec, 128)
    assert time.perf_counter() - start < 1.0
    assert bracket == oracle.GridBracket(
        grid=128,
        best_value=F(1935, 16807268829305383552053384597771328390936720846336),
        gap=F(
            7136238463529799402196579737504809948597452823,
            1644189341997265782266091971521108212156853126272,
        ),
        argmin=(F(129, 128), F(0)),
        argmin_s=F(129, 128),
        points=66049,
    )


def test_cli_refuses_a_bracket_over_budget():
    # At d = 16 the default lattice (G = 1024) needs more branch-and-bound
    # cells than the budget allows.
    argv = [
        "exponent",
        "--r", "2,9/4,2,3,13/4,3/2,11/4,5/2,5/2,11/4,7/4,3/4,15/4,11/4,3/4,1",
        "--p", "11/8,3/2,5/4,5/4,13/8,5,3/2,3/2,5/4,9/8,11/8,3/2,13/8,13/8,11/8,11/8",
        "--q", "7/4",
        "--grid-check",
    ]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code == 4
    assert out.getvalue() == ""
    lines = err.getvalue().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: lattice bracket needs more than")


def test_import_leaves_numpy_out():
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(root / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, widthcalc; print('numpy' in sys.modules)"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


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
        assert order.value != 0


# ---------------------------------------------------------------------------
# cross-validation reports


def test_cross_validation_is_deterministic_and_green():
    first = cross_validate(18, seed=7, identity_points=2)
    second = cross_validate(18, seed=7, identity_points=2)
    assert first.ok
    assert first == second
    assert first.branch_counts() == {label: 2 for label in BRANCH_LABELS}


def test_cross_validation_classifies_each_spec_once(monkeypatch):
    # The uncached classification runs once per spec, the accepted ones
    # included; the traced names, `oracle.sample_branch` and
    # `closedform.classify_regime` as module attributes, are still called.
    classified, sampled, asked = [], [], []
    real_classify, real_sample, real_regime = (
        closedform._classify, oracle.sample_branch, closedform.classify_regime)

    def classify(spec):
        classified.append(spec)  # keeps every spec alive, so ids stay distinct
        return real_classify(spec)

    def sample(rng, label):
        spec = real_sample(rng, label)
        sampled.append(spec)
        return spec

    def regime(spec):
        asked.append(spec)
        return real_regime(spec)

    monkeypatch.setattr(closedform, "_classify", classify)
    monkeypatch.setattr(oracle, "sample_branch", sample)
    monkeypatch.setattr(closedform, "classify_regime", regime)
    report = cross_validate(18, seed=7, identity_points=1)
    assert report.ok
    counts = Counter(map(id, classified))
    assert max(counts.values()) == 1
    assert [id(rec.spec) for rec in report.records] == list(map(id, sampled))
    asked_counts = Counter(map(id, asked))
    for rec in report.records:
        assert counts[id(rec.spec)] == 1
        # Once when sampled and accepted, once more in `cross_validate`.
        assert asked_counts[id(rec.spec)] == 2


def test_a_record_builds_each_table_shape_once():
    # The certificate reads the shape of q and the identity checks read both
    # shapes, so a q > 2 record needs two tables and a q ≤ 2 one needs one;
    # the identity checks' read of the certificate's table comes from the
    # cache.
    oracle._table.cache_clear()
    report = cross_validate(18, seed=7, identity_points=1)
    info = oracle._table.cache_info()
    assert report.ok and {rec.spec.q > 2 for rec in report.records} == {False, True}
    assert info.misses == sum(2 if rec.spec.q > 2 else 1 for rec in report.records)
    assert info.hits == len(report.records)
    # Without the identity checks only the certificate's table is built,
    # once per record.
    oracle._table.cache_clear()
    assert cross_validate(9, seed=7).ok and oracle._table.cache_info()[:2] == (0, 9)


def test_grid_check_above_two_builds_only_the_high_table():
    oracle._table.cache_clear()
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["exponent", "--r", "1,1", "--p", "3,3", "--q", "4", "--grid-check"]) == 0
    assert oracle._table.cache_info()[:] == (0, 1, 2, 1)  # hits, misses, maxsize, currsize
    oracle._table(_spec((1, 1), (3, 3), 4), True)  # the one table held is the high one
    assert oracle._table.cache_info().hits == 1


def test_cross_validation_flags_an_injected_lp_bug(monkeypatch):
    real = oracle.minimize

    def skewed(objective):
        res = real(objective)
        return dataclasses.replace(res, theta=res.theta + F(1, 977))

    monkeypatch.setattr(oracle, "minimize", skewed)
    report = cross_validate(9, seed=7)
    assert not report.ok
    assert all("closed=" in rec.detail for rec in report.records)
    assert sum(not rec.ok for rec in report.records) == 9
