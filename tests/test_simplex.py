"""The exact two-phase simplex and the reduced-cost row it carries."""

from fractions import Fraction as F

import pytest

import widthcalc._simplex as simplex
from widthcalc._simplex import solve_lp

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


@pytest.mark.parametrize(
    "c,A_eq,b_eq,A_ub,b_ub,value,x",
    [
        (C, A_EQ, B_EQ, A_UB, B_UB, F(-1, 20), (F(1, 25), F(0), F(1), F(0), F(2))),
        (*ZERO_ONLY, None, None, F(0), (F(0), F(0), F(0))),
    ],
    ids=["beale-with-redundant-row", "zero-only-equalities"],
)
def test_carried_reduced_costs_match_recomputation_after_every_pivot(
    monkeypatch, c, A_eq, b_eq, A_ub, b_ub, value, x
):
    n_slack = len(A_ub or ())
    n_std = len(c) + n_slack  # variables, then one slack per A_ub row
    c_std = c + [F(0)] * n_slack
    real = simplex._pivot
    pivots = []

    def checked(A, b, basis, row, col, costs):
        degenerate = b[row] == 0
        real(A, b, basis, row, col, costs)
        n_art = len(A[0]) - n_std
        # The last carried row is always phase 2 (artificials cost 0); in
        # phase 1 the phase-1 row (artificials cost 1) precedes it.
        expected = [c_std + [F(0)] * n_art]
        if len(costs) == 2:
            expected.insert(0, [F(0)] * n_std + [F(1)] * n_art)
        assert len(costs) == len(expected)
        for carried, cost in zip(costs, expected):
            assert carried == _recomputed(A, basis, cost)
        pivots.append(degenerate)

    monkeypatch.setattr(simplex, "_pivot", checked)
    res = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
    assert res.status == "optimal"
    assert res.value == value and res.x == x
    assert pivots and any(pivots)  # some pivots have a zero ratio


def test_optimal_result_carries_basis_and_reduced_costs():
    res = solve_lp(C, A_EQ, B_EQ, A_UB, B_UB)
    n_std = len(C) + len(A_UB)
    assert len(res.reduced_costs) == n_std
    assert len(res.basis) == 4  # the duplicate equality row was dropped
    assert all(rc >= 0 for rc in res.reduced_costs)
    assert all(res.reduced_costs[j] == 0 for j in res.basis)
    assert all(res.x[j] == 0 for j in range(len(C)) if j not in res.basis)


def test_infeasible_and_unbounded_results_carry_no_tableau():
    res = solve_lp([F(1)], A_ub=[[F(1)]], b_ub=[F(-1)])
    assert res.status == "infeasible" and res.basis is None
    res = solve_lp([F(-1)], A_ub=[[F(-1)]], b_ub=[F(0)])
    assert res.status == "unbounded" and res.reduced_costs is None
