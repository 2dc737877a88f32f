"""Exact two-phase simplex over rationals.

Solves   minimize c·x   subject to   A_eq x = b_eq,  A_ub x ≤ b_ub,  x ≥ 0

with every entry a `fractions.Fraction`.  No floats anywhere, so optima are
exact and reproducible bit for bit.  Bland's anti-cycling rule (always pick
the lowest-index eligible entering and leaving variable) guarantees
termination even on the degenerate polytopes that piecewise-linear epigraph
problems produce.

The problems this package feeds in are tiny (a handful of variables, a few
dozen rows), so a dense tableau is the right level of machinery.  The
reduced costs are one more tableau row, updated by every pivot like the
constraint rows, and the optimal basis and reduced-cost row come back with
the result so callers can read facts such as uniqueness off the final
tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

__all__ = ["LpResult", "solve_lp", "LpError"]

_ZERO = Fraction(0)
_ONE = Fraction(1)


class LpError(RuntimeError):
    """Internal inconsistency while pivoting (should never escape tests)."""


@dataclass(frozen=True)
class LpResult:
    """Outcome of one solve.

    When optimal, `basis` and `reduced_costs` describe the final tableau over
    the standard-form columns: the variables of c, then one slack per A_ub
    row.  `basis` lists the basic column of each remaining row.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None
    basis: tuple[int, ...] | None = None
    reduced_costs: tuple[Fraction, ...] | None = None


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LpResult:
    """Minimize c·x over {x ≥ 0 : A_eq x = b_eq, A_ub x ≤ b_ub}, exactly."""
    c = [Fraction(v) for v in c]
    n = len(c)
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    n_slack = 0 if A_ub is None else len(A_ub)
    if A_eq is not None:
        for row, b in zip(A_eq, b_eq):
            if len(row) != n:
                raise LpError("equality row length mismatch")
            rows.append([Fraction(v) for v in row] + [_ZERO] * n_slack)
            rhs.append(Fraction(b))
    if A_ub is not None:
        for k, (row, b) in enumerate(zip(A_ub, b_ub)):
            if len(row) != n:
                raise LpError("inequality row length mismatch")
            slack = [_ZERO] * n_slack
            slack[k] = _ONE
            rows.append([Fraction(v) for v in row] + slack)
            rhs.append(Fraction(b))
    cost = c + [_ZERO] * n_slack
    res = _two_phase(rows, rhs, cost)
    if res.status != "optimal":
        return res
    return replace(res, x=res.x[:n])


def _two_phase(A: list[list[Fraction]], b: list[Fraction], c: list[Fraction]) -> LpResult:
    m = len(A)
    n = len(c)
    if m == 0:
        # Unconstrained except x >= 0: minimum is 0 iff c >= 0.
        if all(v >= 0 for v in c):
            return LpResult("optimal", tuple([_ZERO] * n), _ZERO, (), tuple(c))
        return LpResult("unbounded", None, None)
    # Normalize b >= 0 so the artificial basis is feasible.
    A = [row[:] for row in A]
    b = b[:]
    for i in range(m):
        if b[i] < 0:
            A[i] = [-v for v in A[i]]
            b[i] = -b[i]
    # Phase 1: artificial variables n..n+m-1 form the starting basis.
    for i in range(m):
        A[i] = A[i] + [_ONE if k == i else _ZERO for k in range(m)]
    basis = list(range(n, n + m))
    # Reduced-cost rows for that basis: phase 1 minimises the sum of the
    # artificials; the phase-2 row (artificials cost nothing) rides along so
    # phase 2 starts from it without recomputation.
    phase1 = [-sum(A[i][j] for i in range(m)) for j in range(n)] + [_ZERO] * m
    costs = [phase1, c + [_ZERO] * m]
    _iterate(A, b, basis, costs, n + m)
    if sum(b[i] for i in range(m) if basis[i] >= n) != 0:
        return LpResult("infeasible", None, None)
    del costs[0]
    # Drive leftover artificials out of the basis (degenerate rows).
    i = 0
    while i < len(A):
        if basis[i] >= n:
            col = next((j for j in range(n) if A[i][j] != 0), None)
            if col is None:
                # Redundant constraint; drop the row.
                del A[i], b[i], basis[i]
                continue
            _pivot(A, b, basis, i, col, costs)
        i += 1
    # Phase 2 on the original columns only.
    m = len(A)
    A = [row[:n] for row in A]
    costs = [costs[0][:n]]
    status = _iterate(A, b, basis, costs, n)
    if status == "unbounded":
        return LpResult("unbounded", None, None)
    x = [_ZERO] * n
    for i in range(m):
        x[basis[i]] = b[i]
    value = sum(c[j] * x[j] for j in range(n))
    return LpResult("optimal", tuple(x), value, tuple(basis), tuple(costs[0]))


def _iterate(A, b, basis, costs, ncols) -> str:
    """Run simplex pivots with Bland's rule until optimal or unbounded.

    `costs[0]` is the reduced-cost row being minimised; every row of `costs`
    is kept current by the pivots.
    """
    m = len(A)
    while True:
        # Bland: the lowest-index column with a negative reduced cost enters.
        entering = next((j for j in range(ncols) if costs[0][j] < 0), -1)
        if entering < 0:
            return "optimal"
        leaving = -1
        best = None
        for i in range(m):
            if A[i][entering] > 0:
                ratio = b[i] / A[i][entering]
                if best is None or ratio < best or (
                    ratio == best and basis[i] < basis[leaving]
                ):
                    best = ratio
                    leaving = i
        if leaving < 0:
            return "unbounded"
        _pivot(A, b, basis, leaving, entering, costs)


def _pivot(A, b, basis, row, col, costs) -> None:
    m = len(A)
    piv = A[row][col]
    if piv == 0:
        raise LpError("pivot on a zero entry")
    inv = _ONE / piv
    A[row] = [v * inv for v in A[row]]
    b[row] *= inv
    for i in range(m):
        if i != row and A[i][col] != 0:
            f = A[i][col]
            A[i] = [v - f * w for v, w in zip(A[i], A[row])]
            b[i] -= f * b[row]
    for k, z in enumerate(costs):
        f = z[col]
        if f != 0:
            costs[k] = [v - f * w for v, w in zip(z, A[row])]
    basis[row] = col
