"""Exact two-phase simplex over rationals, pivoted on integer rows.

Solves   minimize c·x   subject to   A_eq x = b_eq,  A_ub x ≤ b_ub,  x ≥ 0

exactly.  The input is read as `fractions.Fraction`s and the answer comes
back as `Fraction`s; no floats anywhere, so optima are exact and
reproducible bit for bit.  Bland's anti-cycling rule (always pick the
lowest-index eligible entering and leaving variable) guarantees termination
even on the degenerate polytopes that piecewise-linear epigraph problems
produce.

Between those edges the tableau holds Python integers.  Every row (each
constraint row with its right-hand side, and each carried reduced-cost row
with the negated objective value) is a list of `int`s over one positive row
denominator, divided by the gcd of its entries and denominator after every
update.  A pivot rewrites only the rows with a nonzero entry in the pivot
column, and only over the pivot row's nonzero columns.  The ratio test
compares right-hand side over pivot-column entry by cross-multiplication,
where the row denominators cancel.  The rows stand for the same rational
tableau, so the pivots are exactly the ones a `Fraction` tableau takes,
without the gcd that `Fraction` computes on every multiply and add.

The problems this package feeds in are tiny (a handful of variables, a few
dozen rows), so a dense tableau is the right level of machinery.  The
reduced costs are tableau rows updated by every pivot like the constraint
rows, and the optimal basis and reduced-cost row come back with the result
so callers can read facts such as uniqueness off the final tableau.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import gcd, lcm

__all__ = ["LpResult", "solve_lp", "LpError"]

_ZERO = Fraction(0)


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
    n_slack = 0 if A_ub is None else len(A_ub)
    # Standard-form rows: the n variables, one slack per A_ub row, then the
    # right-hand side, as integers over a row denominator.
    rows: list[list[int]] = []
    dens: list[int] = []
    if A_eq is not None:
        for row, b in zip(A_eq, b_eq):
            if len(row) != n:
                raise LpError("equality row length mismatch")
            ints, den = _lift([*row, b])
            rows.append(ints[:n] + [0] * n_slack + ints[n:])
            dens.append(den)
    if A_ub is not None:
        for k, (row, b) in enumerate(zip(A_ub, b_ub)):
            if len(row) != n:
                raise LpError("inequality row length mismatch")
            ints, den = _lift([*row, b])
            slack = [0] * n_slack
            slack[k] = den
            rows.append(ints[:n] + slack + ints[n:])
            dens.append(den)
    res = _two_phase(rows, dens, c + [_ZERO] * n_slack)
    if res.status != "optimal":
        return res
    return replace(res, x=res.x[:n])


def _lift(values: list) -> tuple[list[int], int]:
    """`values` as integers over one positive denominator, gcd-reduced.

    `int`s and `Fraction`s are read as they are; any other entry (a string
    such as "3/2", say) goes through `Fraction(v)`.
    """
    values = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _two_phase(A: list[list[int]], D: list[int], c: list[Fraction]) -> LpResult:
    """Solve the standard form: row i of A over D[i] is [a_i | b_i], cost c.

    A and D are the tableau.  Below the constraint rows sit the carried
    reduced-cost rows, the one being minimised first; `basis` has one entry
    per constraint row.
    """
    m = len(A)
    n = len(c)
    if m == 0:
        # Unconstrained except x >= 0: minimum is 0 iff c >= 0.
        if all(v >= 0 for v in c):
            return LpResult("optimal", tuple([_ZERO] * n), _ZERO, (), tuple(c))
        return LpResult("unbounded", None, None)
    # Normalize b >= 0 so the artificial basis is feasible.
    A = [[-v for v in row] if row[-1] < 0 else row for row in A]
    # Phase 1 minimises the sum of the artificials: its reduced costs are
    # minus the column sums, over the lcm of the row denominators.
    L = lcm(*D)
    scale = [L // d for d in D]
    phase1 = [-sum(v * s for v, s in zip(col, scale)) for col in zip(*A)]
    # Artificial variables n..n+m-1 form the starting basis, one unit column
    # per row (the entry equals the row denominator).
    for i in range(m):
        art = [0] * m
        art[i] = D[i]
        A[i] = A[i][:n] + art + A[i][n:]
    basis = list(range(n, n + m))
    # The phase-2 row (artificials cost nothing) rides along so phase 2
    # starts from it without recomputation.
    for z, dz in (_reduced(phase1, L), _lift(c + [_ZERO])):
        A.append(z[:n] + [0] * m + z[n:])
        D.append(dz)
    _iterate(A, D, basis)
    # Every b_i stays >= 0, so phase 1 reached 0 iff no artificial is positive.
    if any(A[i][-1] for i in range(m) if basis[i] >= n):
        return LpResult("infeasible", None, None)
    del A[m], D[m]
    # Drive leftover artificials out of the basis (degenerate rows).
    i = 0
    while i < len(basis):
        if basis[i] >= n:
            col = next((j for j in range(n) if A[i][j] != 0), None)
            if col is None:
                # Redundant constraint; drop the row.
                del A[i], D[i], basis[i]
                continue
            _pivot(A, D, basis, i, col)
        i += 1
    # Phase 2 on the original columns only.
    m = len(basis)
    for i, row in enumerate(A):
        A[i], D[i] = _reduced(row[:n] + row[-1:], D[i])
    if _iterate(A, D, basis) == "unbounded":
        return LpResult("unbounded", None, None)
    x = [_ZERO] * n
    for i in range(m):
        x[basis[i]] = Fraction(A[i][-1], D[i])
    value = sum(c[j] * x[j] for j in range(n))
    reduced_costs = tuple(Fraction(v, D[m]) for v in A[m][:n])
    return LpResult("optimal", tuple(x), value, tuple(basis), reduced_costs)


def _iterate(A: list[list[int]], D: list[int], basis: list[int]) -> str:
    """Run simplex pivots with Bland's rule until optimal or unbounded.

    The row below the constraint rows holds the reduced costs being
    minimised; its sign pattern is that of the rational row, since D > 0.
    """
    m = len(basis)
    while True:
        z = A[m]
        # Bland: the lowest-index column with a negative reduced cost enters.
        entering = next((j for j in range(len(z) - 1) if z[j] < 0), -1)
        if entering < 0:
            return "optimal"
        # Ratio b_i / a_i over rows with a_i > 0; the row denominator cancels,
        # and b_i / a_i < b_k / a_k  iff  b_i a_k < b_k a_i.
        leaving = -1
        for i in range(m):
            a = A[i][entering]
            if a > 0:
                b = A[i][-1]
                if leaving < 0:
                    leaving, best_b, best_a = i, b, a
                    continue
                lhs, rhs = b * best_a, best_b * a
                if lhs < rhs or (lhs == rhs and basis[i] < basis[leaving]):
                    leaving, best_b, best_a = i, b, a
        if leaving < 0:
            return "unbounded"
        _pivot(A, D, basis, leaving, entering)


def _pivot(A: list[list[int]], D: list[int], basis: list[int], row: int, col: int) -> None:
    """Pivot the tableau on entry (row, col); `basis[row]` becomes `col`.

    With p the pivot entry, the pivot row keeps its integers over the new
    denominator p (so its pivot-column entry reads 1), and a row a over d
    with entry f in the pivot column becomes (p·a − f·pivot row) over p·d.
    Rows with f = 0 are left as they are.
    """
    piv = A[row]
    p = piv[col]
    if p == 0:
        raise LpError("pivot on a zero entry")
    if p < 0:  # only when driving an artificial out; keep denominators positive
        piv = [-v for v in piv]
        p = -p
    nonzero = [(j, w) for j, w in enumerate(piv) if w]
    for i, a in enumerate(A):
        f = a[col]
        if f and i != row:
            # (p·a − f·pivot row) / (p·d) keeps its value when p and f are
            # divided by their gcd first, which keeps the integers small.
            g = gcd(p, f)
            pg, fg = p // g, f // g
            new = [pg * v for v in a] if pg != 1 else a[:]
            for j, w in nonzero:
                new[j] -= fg * w
            A[i], D[i] = _reduced(new, pg * D[i])
    A[row], D[row] = _reduced(piv, p)
    basis[row] = col
