"""The exact two-phase simplex and the reduced-cost row it carries."""

import hashlib
from fractions import Fraction as F
from math import gcd

import _reference
import pytest
from _reference import D16_ANCHORS, threshold_specs
from hypothesis import given, settings
from hypothesis import strategies as st

import widthcalc._simplex as simplex
import widthcalc.exponent as exponent
from widthcalc._simplex import solve_lp
from widthcalc.exponent import build_objective
from widthcalc.params import ProblemSpec

# Beale's cycling example (degenerate: two zero right-hand sides), plus a
# variable x5 tied to x4 by an equality row and its duplicate, so phase 1
# also drives an artificial out of the basis and drops a redundant row.
C = [F(-3, 4), F(150), F(-1, 50), F(6), F(0)]
A_UB = [
    [F(1, 4), F(-60), F(-1, 25), F(9), F(0)],
    [F(1, 2), F(-90), F(-1, 50), F(3), F(0)],
    [F(0), F(0), F(1), F(0), F(0)],
]
B_UB = [F(0), F(0), F(1)]
A_EQ = [[F(0), F(0), F(0), F(1), F(1)], [F(0), F(0), F(0), F(2), F(2)]]
B_EQ = [F(2), F(4)]


def _recomputed(A, basis, cost):
    return [
        cost[j] - sum(cost[basis[i]] * A[i][j] for i in range(len(A)))
        for j in range(len(A[0]))
    ]


# A degenerate equality system whose only point is 0: phase 1 ends with an
# artificial basic at level zero in a row that still has original entries,
# so it is pivoted out, and that pivot must update the phase-2 row too.
ZERO_ONLY = ([F(1), F(-1), F(-1)], [[F(1), F(1), F(2)], [F(-2), F(1), F(0)]], [F(0), F(0)])


# The epigraph LP of a d = 4, q > 2 spec whose p̄ straddles both 2 and q:
# every ≤ row starts on its slack, so only Σ α − σ = 1 has an artificial.
EPIGRAPH_D4 = exponent._epigraph_lp(
    build_objective(ProblemSpec(r=(1, 1, 1, 1), p=(3, F(3, 2), 5, F(9, 4)), q=F(7, 2)))
)


def _epigraph(spec) -> tuple:
    return exponent._epigraph_lp(build_objective(spec))


# The epigraph LPs of the d = 16 anchors.
EPIGRAPH_D16 = {
    name: _epigraph(
        ProblemSpec(r=tuple(map(F, r.split(","))), p=tuple(map(F, p.split(","))), q=F(q))
    )
    for name, (r, p, q, *_) in zip(("q5", "q7_4", "q2"), D16_ANCHORS)
}


def _standard_form(c, A_eq, b_eq, A_ub, b_ub):
    """The rows [A | artificials | b] the solver starts from, and the artificial count.

    Rows are the equalities, then one per A_ub row with its slack; a row
    that starts on an artificial (every equality, and each A_ub row with
    b < 0) is negated when b < 0 and gets a unit artificial column.
    """
    n_slack = len(A_ub or ())
    rows = [list(row) + [F(0)] * n_slack + [b] for row, b in zip(A_eq or (), b_eq or ())]
    starts = [None] * len(rows)
    for k, (row, b) in enumerate(zip(A_ub or (), b_ub or ())):
        rows.append(list(row) + [F(int(i == k)) for i in range(n_slack)] + [b])
        starts.append(None if b < 0 else len(c) + k)
    art_rows = [i for i, s in enumerate(starts) if s is None]
    for i in art_rows:
        if rows[i][-1] < 0:
            rows[i] = [-v for v in rows[i]]
    for i, row in enumerate(rows):
        row[-1:-1] = [F(int(i == k)) for k in art_rows]
    return rows, len(art_rows)


def _expanded(ints, den, basis, cols, row, width):
    """One stored row as a full tableau row over labels 0..width−1 and b."""
    full = [F(0)] * width + [F(ints[-1], den)]
    for label, v in zip(cols, ints):
        full[label] = F(v, den)
    if row is not None:
        full[basis[row]] = F(1)
    return full


@pytest.mark.parametrize(
    "c,A_eq,b_eq,A_ub,b_ub,value,x,kinds,arts",
    [
        (C, A_EQ, B_EQ, A_UB, B_UB, F(-1, 20), (F(1, 25), F(0), F(1), F(0), F(2)),
         {"phase 1", "phase 2"}, 2),
        (*ZERO_ONLY, None, None, F(0), (F(0), F(0), F(0)),
         {"phase 1", "drive-out", "phase 2"}, 2),
        (*EPIGRAPH_D4, F(157, 720),
         (F(217, 720), F(637, 720), F(49, 720), F(119, 240), F(3, 4), F(157, 720), F(0)),
         {"phase 1", "phase 2"}, 1),
    ],
    ids=["beale-with-redundant-row", "zero-only-equalities", "epigraph-d4-high-q"],
)
def test_carried_reduced_costs_match_recomputation_after_every_pivot(
    monkeypatch, c, A_eq, b_eq, A_ub, b_ub, value, x, kinds, arts
):
    n_slack = len(A_ub or ())
    n_std = len(c) + n_slack  # variables, then one slack per A_ub row
    c_std = c + [F(0)] * n_slack
    original, n_orig_art = _standard_form(c, A_eq, b_eq, A_ub, b_ub)
    assert n_orig_art == arts  # artificials only on rows without a feasible slack
    real = simplex._pivot
    pivots = []

    def checked(A, D, basis, cols, row, col):
        if len(A) - len(basis) == 2:
            kind = "phase 1"
        else:
            kind = "drive-out" if basis[row] >= n_std else "phase 2"
        degenerate = A[row][-1] == 0
        # Bland's rule on labels, wherever the pivot permuted the columns:
        # the lowest label enters, and the least ratio b_i/a_i leaves, ties
        # to the lowest basic label.  An artificial is driven out on the
        # lowest standard-form label with a nonzero entry in its row.
        if kind == "drive-out":
            assert cols[col] == min(lb for lb, v in zip(cols, A[row]) if lb < n_std and v)
        else:
            assert cols[col] == min(lb for lb, v in zip(cols, A[len(basis)]) if v < 0)
            ratios = [
                (F(a[-1], a[col]), basis[i]) for i, a in enumerate(A[: len(basis)]) if a[col] > 0
            ]
            assert (F(A[row][-1], A[row][col]), basis[row]) == min(ratios)
        real(A, D, basis, cols, row, col)
        # Every row is integers over a positive, gcd-reduced denominator, one
        # per nonbasic label and then b; basic and nonbasic labels split the
        # columns, so the basic ones form the identity of the full tableau.
        assert all(den > 0 and gcd(den, *ints) == 1 for ints, den in zip(A, D))
        assert all(len(ints) == len(cols) + 1 for ints in A)
        n_art = sum(label >= n_std for label in [*basis, *cols])
        assert n_art in (0, arts)
        width = n_std + n_art
        assert sorted([*basis, *cols]) == list(range(width))
        m = len(basis)  # constraint rows, then the carried reduced-cost rows
        rows = [_expanded(A[i], D[i], basis, cols, i, width) for i in range(m)]
        # The full tableau is B⁻¹[A | b]: every original row is the
        # combination of the tableau rows weighted by its basic entries
        # (this also covers a dropped redundant row).  Once phase 1 is over
        # the artificial columns are gone.
        for orig in original:
            orig = orig[:n_std] + orig[n_std + n_orig_art:] if not n_art else orig
            combo = [sum(orig[basis[i]] * rows[i][j] for i in range(m)) for j in range(width + 1)]
            assert combo == orig
        # The last carried row is always phase 2 (artificials cost 0); in
        # phase 1 the phase-1 row (artificials cost 1) precedes it.  Each
        # carries the negated objective value in its right-hand side.
        expected = [c_std + [F(0)] * n_art + [F(0)]]
        if len(A) - m == 2:
            expected.insert(0, [F(0)] * n_std + [F(1)] * n_art + [F(0)])
        assert len(A) - m == len(expected)
        for ints, den, cost in zip(A[m:], D[m:], expected):
            carried = _expanded(ints, den, basis, cols, None, width)
            assert carried == _recomputed(rows, basis, cost)
        pivots.append((kind, degenerate))

    monkeypatch.setattr(simplex, "_pivot", checked)
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    assert res.status == "optimal"
    assert res.value == value and res.x == x
    assert {kind for kind, _ in pivots} == kinds
    assert any(degenerate for _, degenerate in pivots)  # some have a zero ratio


def test_optimal_result_carries_basis_and_reduced_costs():
    res = solve_lp(C, A_EQ, B_EQ, A_UB, B_UB)
    n_std = len(C) + len(A_UB)
    assert len(res.reduced_costs) == n_std
    assert len(res.basis) == 4  # the duplicate equality row was dropped
    assert all(rc >= 0 for rc in res.reduced_costs)
    assert all(res.reduced_costs[j] == 0 for j in res.basis)
    assert all(res.x[j] == 0 for j in range(len(C)) if j not in res.basis)


# sha256 of repr((x, value, slack, reduced_costs)) of each LP's optimum, as
# `solve_lp` built them eagerly before its result fields were built on read;
# the slack is b − A_ub·x.
EAGER = {
    "d4": "d3e8e16be70105333fdca42e79d824d889dbc27bfbfec338bf2326657e72204e",
    "q5": "21b7924311ab66a17bb3153797f6390f68794a6403b5352fd3bb7b84037a07c5",
    "q7_4": "91e52753376ccab9134d80eba4f534e60c5833b5b950cee65f6a354149a7b60b",
    "q2": "00e3e72ab4d18a441d5b816d08bc033292fc2c633c80570ef25559067f8cccd6",
}


def test_solve_builds_no_fraction_until_a_field_is_read(monkeypatch):
    lps = {"d4": EPIGRAPH_D4, **EPIGRAPH_D16}

    def refused(*args):
        raise AssertionError(f"solve_lp built a Fraction{args}")

    monkeypatch.setattr(simplex, "Fraction", refused)
    results = {name: solve_lp(*lp) for name, lp in lps.items()}
    monkeypatch.undo()
    for name, res in results.items():
        _, _, _, A_ub, b_ub = lps[name]
        slack = tuple(b - sum(a * v for a, v in zip(row, res.x)) for row, b in zip(A_ub, b_ub))
        fields = (res.x, res.value, slack, res.reduced_costs)
        assert hashlib.sha256(repr(fields).encode()).hexdigest() == EAGER[name]


def _pivot_path(lp, iterate, pivot):
    """The (entering, leaving) labels of every pivot `solve_lp` takes on `lp`
    with `iterate` and `pivot` in place of the module's own, then its final
    basis and integer tableau."""
    path = []

    def recorded(A, D, basis, cols, row, col):
        path.append((cols[col], basis[row]))
        pivot(A, D, basis, cols, row, col)

    saved = simplex._iterate, simplex._pivot, _reference._pivot
    simplex._iterate, simplex._pivot, _reference._pivot = iterate, recorded, recorded
    try:
        res = solve_lp(*lp)
    finally:
        simplex._iterate, simplex._pivot, _reference._pivot = saved
    assert res.status == "optimal"
    return path, res.basis, res.rows, res.dens


def _assert_reference_pivots(lp):
    ours = _pivot_path(lp, simplex._iterate, simplex._pivot)
    assert ours == _pivot_path(lp, _reference._iterate, _reference._pivot)
    assert ours[0]  # some pivot ran


@pytest.mark.parametrize(
    "lp",
    [(C, A_EQ, B_EQ, A_UB, B_UB), ZERO_ONLY, EPIGRAPH_D4],
    ids=["beale-with-redundant-row", "zero-only-equalities", "epigraph-d4-high-q"],
)
def test_pivots_follow_the_reference_loop(lp):
    _assert_reference_pivots(lp)


@settings(max_examples=60, deadline=None)
@given(threshold_specs())
def test_epigraph_pivots_follow_the_reference_loop(spec):
    _assert_reference_pivots(_epigraph(spec))


def test_infeasible_and_unbounded_results_carry_no_tableau():
    res = solve_lp([F(1)], A_ub=[[F(1)]], b_ub=[F(-1)])
    assert res.status == "infeasible" and res.basis is None
    res = solve_lp([F(-1)], A_ub=[[F(-1)]], b_ub=[F(0)])
    assert res.status == "unbounded" and res.reduced_costs is None


def _row_reduce(rows):
    """Gauss-Jordan over `Fraction`s; (reduced rows, pivot columns)."""
    rows = [list(r) for r in rows]
    pivots = []
    for col in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        rows[r] = [v / rows[r][col] for v in rows[r]]
        for i, row in enumerate(rows):
            if i != r and row[col] != 0:
                rows[i] = [v - row[col] * w for v, w in zip(row, rows[r])]
        pivots.append(col)
    return rows, pivots


coefficients = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def bounded_lps(draw):
    """A feasible LP with box rows x_j ≤ 2, so it has an optimum.

    The constraints pass through a drawn point x0 in the box.  Equality rows
    may be negated so that their right-hand side is negative, and may repeat
    a multiple of the first row; inequality rows may be tight at x0.
    """
    n = draw(st.integers(1, 4))
    vectors = st.lists(coefficients, min_size=n, max_size=n)
    x0 = draw(st.lists(st.fractions(0, 2, max_denominator=3), min_size=n, max_size=n))
    A_eq, b_eq = [], []
    for row in draw(st.lists(vectors, min_size=1, max_size=3)):
        b = sum(a * x for a, x in zip(row, x0))
        if b > 0 and draw(st.booleans()):
            row, b = [-a for a in row], -b
        A_eq.append(row)
        b_eq.append(b)
    if draw(st.booleans()):
        k = draw(st.sampled_from([-2, 3]))
        A_eq.append([k * a for a in A_eq[0]])
        b_eq.append(k * b_eq[0])
    A_ub, b_ub = [], []
    for row in draw(st.lists(vectors, max_size=3)):
        A_ub.append(row)
        b_ub.append(sum(a * x for a, x in zip(row, x0)) + draw(st.sampled_from([0, 0, F(1, 2), 1])))
    for j in range(n):
        A_ub.append([F(int(i == j)) for i in range(n)])
        b_ub.append(F(2))
    return draw(vectors), A_eq, b_eq, A_ub, b_ub


@settings(max_examples=200, deadline=None)
@given(bounded_lps())
def test_optimum_is_certified_in_plain_fraction_arithmetic(lp):
    c, A_eq, b_eq, A_ub, b_ub = lp
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    assert res.status == "optimal"
    x = res.x
    # x is feasible and has the reported value.
    assert all(v >= 0 for v in x)
    assert all(sum(a * v for a, v in zip(row, x)) == b for row, b in zip(A_eq, b_eq))
    assert all(sum(a * v for a, v in zip(row, x)) <= b for row, b in zip(A_ub, b_ub))
    assert res.value == sum(a * v for a, v in zip(c, x))
    # The standard form: the variables, then one slack per inequality row.
    n, k = len(c), len(A_ub)
    rows = [list(row) + [F(0)] * k for row in A_eq]
    rows += [list(row) + [F(int(i == j)) for i in range(k)] for j, row in enumerate(A_ub)]
    b_std = list(b_eq) + list(b_ub)
    c_std = list(c) + [F(0)] * k
    x_std = list(x) + [b - sum(a * v for a, v in zip(row, x)) for row, b in zip(A_ub, b_ub)]
    # The basis has one independent column per independent row (the
    # dropped rows were redundant), and x is its basic solution.
    basis = res.basis
    assert len(set(basis)) == len(basis) == len(_row_reduce(rows)[1])
    B = [[row[j] for row in rows] for j in basis]  # Bᵀ, one line per basic column
    assert len(_row_reduce(B)[1]) == len(basis)
    assert all(x_std[j] == 0 for j in range(n + k) if j not in basis)
    # Duals y with yᵀB = c_B, then c − yᵀA, recomputed without the solver.
    reduced, pivots = _row_reduce([line + [c_std[j]] for line, j in zip(B, basis)])
    assert all(col < len(rows) for col in pivots)  # consistent: no pivot on c_B
    y = [F(0)] * len(rows)
    for line, col in zip(reduced, pivots):
        y[col] = line[-1]
    rc = [c_std[j] - sum(yi * row[j] for yi, row in zip(y, rows)) for j in range(n + k)]
    assert list(res.reduced_costs) == rc
    assert all(v >= 0 for v in rc)
    # Dual feasible with the primal value: a certificate of optimality.
    assert sum(yi * b for yi, b in zip(y, b_std)) == res.value
