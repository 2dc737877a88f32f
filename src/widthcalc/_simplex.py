"""Exact two-phase simplex over rationals, pivoted on integer rows.

Solves   minimize c·x   subject to   A_eq x = b_eq,  A_ub x ≤ b_ub,  x ≥ 0

exactly.  The input is read as integers and `fractions.Fraction`s and the
answer comes back as `Fraction`s; no floats anywhere, so optima are exact
and reproducible bit for bit.  Bland's anti-cycling rule (always pick the
lowest-index eligible entering and leaving variable) guarantees termination
even on the degenerate polytopes that piecewise-linear epigraph problems
produce.

Phase 1 starts each row on a slack where it can: an A_ub row whose
right-hand side is ≥ 0 starts on its own slack, and only equality rows and
A_ub rows with b < 0 (negated so that b > 0) get an artificial variable.
Phase 1 minimises the sum of those artificials, and is skipped when there
are none.

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
rows.  The optimal value is read off the reduced-cost row, and the optimal
basis, reduced costs and slacks come back with the result so callers can
read facts such as uniqueness and tight rows off the final tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

__all__ = ["LpResult", "solve_lp", "LpError"]

_ZERO = Fraction(0)


class LpError(RuntimeError):
    """Internal inconsistency while pivoting (should never escape tests)."""


@dataclass(frozen=True)
class LpResult:
    """Outcome of one solve.

    When optimal, `slack` holds b − A_ub x, one value per A_ub row, and
    `basis` and `reduced_costs` describe the final tableau over the
    standard-form columns: the variables of c, then one slack per A_ub row.
    `basis` lists the basic column of each remaining row.
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    x: tuple[Fraction, ...] | None
    value: Fraction | None
    basis: tuple[int, ...] | None = None
    reduced_costs: tuple[Fraction, ...] | None = None
    slack: tuple[Fraction, ...] | None = None


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LpResult:
    """Minimize c·x over {x ≥ 0 : A_eq x = b_eq, A_ub x ≤ b_ub}, exactly.

    Entries may be `int`s, `Fraction`s or anything `Fraction()` reads.  An
    A_ub row with b ≥ 0 starts phase 1 on its slack; equality rows and A_ub
    rows with b < 0 start on an artificial.  The optimal value is minus the
    right-hand side of the final reduced-cost row.
    """
    n = len(c)
    n_slack = 0 if A_ub is None else len(A_ub)
    # Standard-form rows: the n variables, one slack per A_ub row, then the
    # right-hand side, as integers over a row denominator.  `basis` holds
    # each row's starting column, or None where the row needs an artificial.
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int | None] = []
    if A_eq is not None:
        for row, b in zip(A_eq, b_eq):
            if len(row) != n:
                raise LpError("equality row length mismatch")
            ints, den = _lift([*row, b])
            rows.append(ints[:n] + [0] * n_slack + ints[n:])
            dens.append(den)
            basis.append(None)
    if A_ub is not None:
        for k, (row, b) in enumerate(zip(A_ub, b_ub)):
            if len(row) != n:
                raise LpError("inequality row length mismatch")
            ints, den = _lift([*row, b])
            slack = [0] * n_slack
            slack[k] = den
            rows.append(ints[:n] + slack + ints[n:])
            dens.append(den)
            basis.append(n + k if ints[-1] >= 0 else None)
    cost, cost_den = _lift([*c, *[0] * n_slack, 0])
    rows.append(cost)
    dens.append(cost_den)
    status = _two_phase(rows, dens, basis)
    if status != "optimal":
        return LpResult(status, None, None)
    values = [_ZERO] * (n + n_slack)
    for i, j in enumerate(basis):
        if rows[i][-1]:
            values[j] = Fraction(rows[i][-1], dens[i])
    z, dz = rows[-1], dens[-1]
    return LpResult(
        "optimal",
        tuple(values[:n]),
        Fraction(-z[-1], dz),
        tuple(basis),
        tuple(Fraction(v, dz) if v else _ZERO for v in z[:-1]),
        tuple(values[n:]),
    )


def _lift(values: list) -> tuple[list[int], int]:
    """`values` as integers over one positive denominator, gcd-reduced.

    A list of `int`s is taken as it stands, over denominator 1.  `int`s and
    `Fraction`s are read as they are; any other entry (a string such as
    "3/2", say) goes through `Fraction(v)`.
    """
    if all(type(v) is int for v in values):
        return values, 1
    values = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _two_phase(A: list[list[int]], D: list[int], basis: list[int | None]) -> str:
    """Solve the standard form in place; "optimal", "infeasible" or "unbounded".

    Row i of A over D[i] is [a_i | b_i] for each of the m = len(basis)
    constraint rows, and the row below them is the cost row [c | 0].
    `basis[i]` is the starting basic column of row i (a slack, whose entry
    is the row denominator, with b_i ≥ 0) or None for a row that needs an
    artificial.  When optimal, A, D and `basis` hold the final tableau; its
    last row carries the reduced costs and the negated optimal value.
    """
    m = len(basis)
    n = len(A[m]) - 1
    art_rows = [i for i in range(m) if basis[i] is None]
    if art_rows:
        # Normalize b >= 0 so the artificial basis is feasible.
        for i in art_rows:
            if A[i][-1] < 0:
                A[i] = [-v for v in A[i]]
        # Phase 1 minimises the sum of the artificials: its reduced costs are
        # minus the column sums of their rows, over the lcm of those rows'
        # denominators.
        L = lcm(*(D[i] for i in art_rows))
        scale = [L // D[i] for i in art_rows]
        columns = zip(*(A[i] for i in art_rows))
        phase1 = [-sum(v * s for v, s in zip(col, scale)) for col in columns]
        z, dz = _reduced(phase1, L)
        A.insert(m, z)
        D.insert(m, dz)
        # Artificial columns n..n+k-1, one unit column per row in art_rows (the
        # entry equals the row denominator).  The phase-2 row (artificials
        # cost nothing) rides along so phase 2 starts from it.
        k = len(art_rows)
        for i, row in enumerate(A):
            A[i] = row[:n] + [0] * k + row[n:]
        for t, i in enumerate(art_rows):
            A[i][n + t] = D[i]
            basis[i] = n + t
        _iterate(A, D, basis)
        # Every b_i stays >= 0, so phase 1 reached 0 iff no artificial is positive.
        if any(A[i][-1] for i in range(m) if basis[i] >= n):
            return "infeasible"
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
        for i, row in enumerate(A):
            A[i], D[i] = _reduced(row[:n] + row[-1:], D[i])
    return _iterate(A, D, basis)


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
