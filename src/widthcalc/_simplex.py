"""Exact two-phase simplex over rationals, pivoted on condensed integer rows.

Solves   minimize c·x   subject to   A_eq x = b_eq,  A_ub x ≤ b_ub,  x ≥ 0

exactly.  The input is read as integers and `fractions.Fraction`s and the
answer comes back as `Fraction`s; no floats anywhere, so optima are exact
and reproducible bit for bit.  Bland's anti-cycling rule (always pick the
lowest-index eligible entering and leaving variable) guarantees termination
even on the degenerate polytopes that piecewise-linear epigraph problems
produce.

The variables carry fixed labels: the n variables of c are 0..n−1, the
slack of A_ub row k is n + k, and the artificial of the t-th row that needs
one comes after every slack.  Phase 1 starts each row on a slack where it
can: an A_ub row whose right-hand side is ≥ 0 starts on its own slack, and
only equality rows and A_ub rows with b < 0 (negated so that b > 0) get an
artificial.  Phase 1 minimises the sum of those artificials, and is skipped
when there are none.

The tableau is condensed, the "dictionary" of Chvátal (Linear Programming,
1983): a basic variable's column is a unit column, so it is never stored.
Each row holds one integer per nonbasic variable, in the order of the
`cols` labels, then the right-hand side, all over one positive row
denominator and divided by the gcd of its entries and denominator after
every update.  Those are exactly the integers of the full tableau with its
basic columns left out.  A pivot on (row, col) swaps the labels: the
entering variable takes the row in `basis`, and the leaving variable takes
the column in `cols`, whose entries are the ones the leaving variable's
unit column would have had after the pivot.  Rows with a zero entry in the
pivot column are left as they are.  The ratio test compares right-hand side
over pivot-column entry by cross-multiplication, where the row denominators
cancel.  The rows stand for the same rational tableau, so the pivots are
exactly the ones a `Fraction` tableau takes, without the gcd that
`Fraction` computes on every multiply and add.

The problems this package feeds in are tiny (a handful of variables, at
most a couple of hundred rows), so a dense condensed tableau is the right
level of machinery.  The reduced costs are a row below the constraint rows,
updated by every pivot like them; its right-hand side holds the negated
objective value.  When optimal, a basic variable's value is its row's
right-hand side and its reduced cost is 0, and a nonbasic variable's value
is 0 and its reduced cost is its entry in the reduced-cost row; the slacks
are the values of the slack labels.  The optimal basis, reduced costs and
slacks come back with the result, so callers can read facts such as
uniqueness and tight rows off the final tableau.
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
    n_ub = 0 if A_ub is None else len(A_ub)
    n_std = n + n_ub
    # Each row as integers over a row denominator, and its starting label,
    # or None where the row needs an artificial.
    rows: list[list[int]] = []
    dens: list[int] = []
    basis: list[int | None] = []
    if A_eq is not None:
        for row, b in zip(A_eq, b_eq):
            if len(row) != n:
                raise LpError("equality row length mismatch")
            ints, den = _lift([*row, b])
            rows.append(ints)
            dens.append(den)
            basis.append(None)
    if A_ub is not None:
        for k, (row, b) in enumerate(zip(A_ub, b_ub)):
            if len(row) != n:
                raise LpError("inequality row length mismatch")
            ints, den = _lift([*row, b])
            rows.append(ints)
            dens.append(den)
            basis.append(n + k if ints[-1] >= 0 else None)
    cost, cost_den = _lift([*c, 0])
    rows.append(cost)
    dens.append(cost_den)
    # The nonbasic labels: the n variables, then the slack of each A_ub row
    # that starts on an artificial.  That slack's column is the row
    # denominator in its own row and 0 in every other.
    first = len(basis) - n_ub
    art_ub = [i for i in range(first, len(basis)) if basis[i] is None]
    cols = list(range(n)) + [n + i - first for i in art_ub]
    if art_ub:
        for i, row in enumerate(rows):
            rows[i] = row[:n] + [dens[i] if i == k else 0 for k in art_ub] + row[n:]
    status = _two_phase(rows, dens, basis, cols, n_std)
    if status != "optimal":
        return LpResult(status, None, None)
    values = [_ZERO] * n_std
    for i, j in enumerate(basis):
        if rows[i][-1]:
            values[j] = Fraction(rows[i][-1], dens[i])
    z, dz = rows[-1], dens[-1]
    reduced = [_ZERO] * n_std
    for j, v in zip(cols, z):
        if v:
            reduced[j] = Fraction(v, dz)
    return LpResult(
        "optimal",
        tuple(values[:n]),
        Fraction(-z[-1], dz),
        tuple(basis),
        tuple(reduced),
        tuple(values[n:]),
    )


def _lift(values: list) -> tuple[list[int], int]:
    """`values` as integers over one positive denominator, gcd-reduced.

    A list of `int`s is taken as it stands, over denominator 1.  `int`s and
    `Fraction`s are read as they are; any other entry (a string such as
    "3/2", say) goes through `Fraction(v)`.
    """
    if set(map(type, values)) == {int}:
        return values, 1
    values = [v if type(v) is Fraction or type(v) is int else Fraction(v) for v in values]
    den = lcm(*(v.denominator for v in values))
    return _reduced([v.numerator * (den // v.denominator) for v in values], den)


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


def _two_phase(
    A: list[list[int]], D: list[int], basis: list[int | None], cols: list[int], n_std: int
) -> str:
    """Solve the condensed tableau in place; "optimal", "infeasible" or "unbounded".

    Row i of A over D[i] holds the entries of the nonbasic labels `cols`
    and then b_i, for each of the m = len(basis) constraint rows, and the
    row below them is the cost row over the same labels.  `basis[i]` is the
    starting basic label of row i (a slack, with b_i ≥ 0) or None for a row
    that needs an artificial; labels below `n_std` are the standard-form
    columns.  When optimal, A, D, `basis` and `cols` hold the final tableau;
    its last row carries the reduced costs and the negated optimal value.
    """
    m = len(basis)
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
        # The artificials are basic, labelled after every standard-form
        # column in row order.  The phase-2 row (artificials cost nothing)
        # rides along so phase 2 starts from it.
        for t, i in enumerate(art_rows):
            basis[i] = n_std + t
        _iterate(A, D, basis, cols)
        # Every b_i stays >= 0, so phase 1 reached 0 iff no artificial is positive.
        if any(A[i][-1] for i in range(m) if basis[i] >= n_std):
            return "infeasible"
        del A[m], D[m]
        # Drive leftover artificials out of the basis (degenerate rows) on
        # the lowest standard-form label with a nonzero entry.
        i = 0
        while i < len(basis):
            if basis[i] >= n_std:
                row = A[i]
                col = min(
                    (j for j, label in enumerate(cols) if label < n_std and row[j]),
                    key=cols.__getitem__,
                    default=None,
                )
                if col is None:
                    # Redundant constraint; drop the row.
                    del A[i], D[i], basis[i]
                    continue
                _pivot(A, D, basis, cols, i, col)
            i += 1
        # Phase 2 on the standard-form labels only.
        keep = [j for j, label in enumerate(cols) if label < n_std]
        cols[:] = [cols[j] for j in keep]
        keep.append(-1)
        for i, row in enumerate(A):
            A[i], D[i] = _reduced([row[j] for j in keep], D[i])
    return _iterate(A, D, basis, cols)


def _iterate(A: list[list[int]], D: list[int], basis: list[int], cols: list[int]) -> str:
    """Run simplex pivots with Bland's rule until optimal or unbounded.

    The row below the constraint rows holds the reduced costs being
    minimised; its sign pattern is that of the rational row, since D > 0.
    """
    m = len(basis)
    while True:
        z = A[m]
        # Bland: the lowest label with a negative reduced cost enters.
        negative = [j for j, v in enumerate(z[:-1]) if v < 0]
        if not negative:
            return "optimal"
        entering = min(negative, key=cols.__getitem__)
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
        _pivot(A, D, basis, cols, leaving, entering)


def _pivot(
    A: list[list[int]], D: list[int], basis: list[int], cols: list[int], row: int, col: int
) -> None:
    """Pivot on entry (row, col): `cols[col]` enters, `basis[row]` leaves.

    With p the pivot entry of the row a_r over d_r, the pivot row keeps its
    integers over the new denominator p, except that column col now holds
    the leaving variable: d_r (its unit entry) where the entering entry
    was.  A row a over d with entry f in the pivot column becomes
    (p·a − f·pivot row) over p·d, with its column col starting from the
    leaving variable's 0.  Rows with f = 0 are left as they are.
    """
    piv = A[row][:]
    p = piv[col]
    if p == 0:
        raise LpError("pivot on a zero entry")
    piv[col] = D[row]
    if p < 0:  # only when driving an artificial out; keep denominators positive
        piv = [-v for v in piv]
        p = -p
    for i, a in enumerate(A):
        f = a[col]
        if f and i != row:
            # (p·a − f·pivot row) / (p·d) keeps its value when p and f are
            # divided by their gcd first, which keeps the integers small.
            g = gcd(p, f)
            pg, fg = p // g, f // g
            new = [pg * v - fg * w for v, w in zip(a, piv)]
            new[col] = -fg * piv[col]
            A[i], D[i] = _reduced(new, pg * D[i])
    A[row], D[row] = _reduced(piv, p)
    basis[row], cols[col] = cols[col], basis[row]
