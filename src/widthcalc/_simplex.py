"""Exact two-phase simplex over rationals, pivoted on condensed integer rows.

Solves   minimize c·x   subject to   A_eq x = b_eq,  A_ub x ≤ b_ub,  x ≥ 0

exactly.  The input is read as integers and `fractions.Fraction`s and the
answer is read as `Fraction`s; no floats anywhere, so optima are exact
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
level of machinery, and the work around the pivots is kept as small as the
pivots: each input row is copied once into the tableau, and a row of
`int`s is taken as it stands once its sum reads as an `int`.  The reduced
costs are a row below the constraint rows, updated by every pivot like
them; its right-hand side holds the negated objective value.  Phase 1
carries that phase-2 row along, and hands over to phase 2 by deleting the
artificial columns in place, after driving any artificial left in the basis
out of it; only a row that held a nonzero entry in a deleted column is
reduced again.

When optimal, a basic variable's value is its row's right-hand side and its
reduced cost is 0, and a nonbasic variable's value is 0 and its reduced
cost is its entry in the reduced-cost row.  The result is the final
tableau: its basis, nonbasic labels and integer rows.  `LpResult.vertex`
reads the optimum off it in one pass, the one derivation of x and c·x that
`exponent.minimize` and the fields `x` and `value` share: it builds a
`Fraction` for c·x and for each nonzero value it is asked for, reuses one
shared zero for the rest, and gives the labels with a positive value as
integers.  `x`, `value` and `reduced_costs` are built on every read; a
caller that only needs to know which values are zero (tight rows, zero
reduced costs) reads the signs of the integers and builds no `Fraction`.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

__all__ = ["LpResult", "solve_lp", "LpError"]

_ZERO = Fraction(0)


class LpError(RuntimeError):
    """Internal inconsistency while pivoting (should never escape tests)."""


class LpResult(NamedTuple):
    """Outcome of one solve: its status and, when optimal, the final tableau.

    `basis` lists the basic label of each remaining row and `cols` the
    nonbasic labels: the variables of c, then one slack per A_ub row.
    `rows` holds one list of integers per row of `basis`, an entry per
    label of `cols` and then the right-hand side, and below them the
    reduced-cost row, whose right-hand side is the negated optimal value;
    row i is over `dens[i]`.  `vertex` reads the optimum off them; the
    `Fraction` fields `x`, `value` and `reduced_costs` are built from them
    on every read, and are None when the status is not "optimal".
    """

    status: str  # "optimal" | "infeasible" | "unbounded"
    basis: tuple[int, ...] | None = None
    cols: list[int] | None = None
    rows: list[list[int]] | None = None
    dens: list[int] | None = None
    n: int = 0  # the number of variables of c

    def vertex(self, k: int) -> tuple[Fraction, tuple[Fraction, ...], dict[int, tuple[int, int]]]:
        """(c·x, (x_0, …, x_{k−1}), levels), read off the final tableau in one
        pass over its rows.

        `levels` maps each label with a positive value, a basic label whose
        row has a nonzero right-hand side, to that right-hand side and the
        row denominator, as integers; every other value is 0.  The
        `Fraction`s built are c·x and one per nonzero x_j with j < k; each
        zero is one shared `Fraction(0)`.
        """
        x = [_ZERO] * k
        levels = {}
        for j, row, den in zip(self.basis, self.rows, self.dens):
            v = row[-1]
            if v:
                levels[j] = v, den
                if j < k:
                    x[j] = Fraction(v, den)
        return Fraction(-self.rows[-1][-1], self.dens[-1]), tuple(x), levels

    @property
    def x(self) -> tuple[Fraction, ...] | None:
        """The optimal vertex: a basic variable's right-hand side, else 0."""
        return None if self.rows is None else self.vertex(self.n)[1]

    @property
    def value(self) -> Fraction | None:
        """The optimal value c·x."""
        return None if self.rows is None else self.vertex(0)[0]

    def zero_cost_nonbasic(self) -> set[int]:
        """The nonbasic labels whose reduced cost is 0, read off the signs of
        the reduced-cost row's integers; no `Fraction` is built."""
        return {j for j, v in zip(self.cols, self.rows[-1]) if not v}

    @property
    def reduced_costs(self) -> tuple[Fraction, ...] | None:
        """One per standard-form column: 0 on the basic ones."""
        if self.rows is None:
            return None
        reduced = [_ZERO] * (len(self.basis) + len(self.cols))
        for j, v in zip(self.cols, self.rows[-1]):
            if v:
                reduced[j] = Fraction(v, self.dens[-1])
        return tuple(reduced)


def solve_lp(c, A_eq=None, b_eq=None, A_ub=None, b_ub=None) -> LpResult:
    """Minimize c·x over {x ≥ 0 : A_eq x = b_eq, A_ub x ≤ b_ub}, exactly.

    Entries are `int`s or `Fraction`s.  An A_ub row with b ≥ 0 starts
    phase 1 on its slack; equality rows and A_ub rows with b < 0 start on an
    artificial.  The optimal value is minus the right-hand side of the final
    reduced-cost row.
    """
    n = len(c)
    A_eq, b_eq, A_ub, b_ub = A_eq or (), b_eq or (), A_ub or (), b_ub or ()
    # The set-up runs in plain loops: at the sizes of the epigraph LP, a
    # comprehension or a builtin over a few entries costs more than its work.
    #
    # The A_ub rows that start on an artificial.  Their slacks are nonbasic
    # columns after the n variables: an entry equal to the row denominator
    # in its own row (slack value 1), and 0 in every other row.
    art_ub = []
    for k, b in enumerate(b_ub):
        if b < 0:
            art_ub.append(k)
    pad = [0] * len(art_ub)
    # Each row copied once from its input, then lifted in place to integers
    # over a row denominator; the cost row comes last.
    rows = []
    for row, b in zip(A_eq, b_eq):
        if len(row) != n:
            raise LpError("equality row length mismatch")
        rows.append([*row, *pad, b])
    for row, b in zip(A_ub, b_ub):
        if len(row) != n:
            raise LpError("inequality row length mismatch")
        rows.append([*row, *pad, b])
    rows.append([*c, *pad, 0])
    dens = _lift(rows)
    # Each row's starting label: its slack, or None where it needs an
    # artificial.  The nonbasic labels: the n variables, then those slacks.
    m_eq = len(A_eq)
    basis = [None] * m_eq
    basis += range(n, n + len(A_ub))
    cols = [*range(n)]
    for t, k in enumerate(art_ub):
        i = m_eq + k
        rows[i][n + t] = dens[i]
        basis[i] = None
        cols.append(n + k)
    status = _two_phase(rows, dens, basis, cols, n + len(A_ub))
    if status != "optimal":
        return LpResult(status)
    return LpResult(status, tuple(basis), cols, rows, dens, n)


def _lift(rows: list[list]) -> list[int]:
    """Put each row of `rows`, of `int`s and `Fraction`s, in place as
    integers over one positive row denominator, gcd-reduced, and return the
    denominators.  A row of `int`s is kept as it stands, over 1, after one
    scan: its sum, which is an `int` unless a `Fraction` is in the row.
    """
    dens = []
    for i, row in enumerate(rows):
        den = 1
        if type(sum(row)) is not int:
            den = lcm(*[v.denominator for v in row])
            rows[i], den = _reduced([v.numerator * (den // v.denominator) for v in row], den)
        dens.append(den)
    return dens


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
    art_rows = []
    for i, label in enumerate(basis):
        if label is None:
            art_rows.append(i)
    if art_rows:
        # Phase 1 minimises the sum of the artificials: its reduced costs are
        # minus the column sums of their rows, over the lcm of those rows'
        # denominators.  The artificials are basic, labelled after every
        # standard-form column in row order, and each of their rows is
        # negated first if need be, so that b >= 0 and that basis is
        # feasible.  The phase-2 row (artificials cost nothing) rides along
        # so phase 2 starts from it.
        L = 1
        for i in art_rows:
            L = lcm(L, D[i])
        phase1 = [0] * len(A[m])
        for t, i in enumerate(art_rows):
            row = A[i]
            if row[-1] < 0:
                row = A[i] = [-v for v in row]
            scale = L // D[i]
            phase1 = [z - scale * v for z, v in zip(phase1, row)]
            basis[i] = n_std + t
        z, dz = _reduced(phase1, L)
        A.insert(m, z)
        D.insert(m, dz)
        _iterate(A, D, basis, cols)
        # Every b_i stays >= 0, so phase 1 reached 0 iff no artificial is positive.
        left = []
        for i, label in enumerate(basis):
            if label >= n_std:
                if A[i][-1]:
                    return "infeasible"
                left.append(i)
        del A[m], D[m]
        # Drive leftover artificials out of the basis (degenerate rows) on
        # the lowest standard-form label with a nonzero entry, in row order.
        # Such a pivot changes no other row's basic label.
        dropped = 0
        for i in left:
            i -= dropped
            row = A[i]
            col = min(
                (j for j, label in enumerate(cols) if label < n_std and row[j]),
                key=cols.__getitem__,
                default=None,
            )
            if col is None:
                # Redundant constraint; drop the row.
                del A[i], D[i], basis[i]
                dropped += 1
            else:
                _pivot(A, D, basis, cols, i, col)
        # Phase 2 on the standard-form labels only: the artificial columns
        # are deleted in place, last first.  A row that held a nonzero entry
        # in one may have a larger gcd, so only such a row is reduced again.
        art = []
        for j, label in enumerate(cols):
            if label >= n_std:
                art.insert(0, j)
        for j in art:
            del cols[j]
        for i, row in enumerate(A):
            held = False
            for j in art:
                if row.pop(j):
                    held = True
            if held:
                g = gcd(D[i], *row)
                if g != 1:
                    A[i], D[i] = [v // g for v in row], D[i] // g
    return _iterate(A, D, basis, cols)


def _iterate(A: list[list[int]], D: list[int], basis: list[int], cols: list[int]) -> str:
    """Run simplex pivots with Bland's rule until optimal or unbounded.

    The row below the constraint rows holds the reduced costs being
    minimised; its sign pattern is that of the rational row, since D > 0.
    """
    m = len(basis)
    while True:
        # Bland: the lowest label with a negative reduced cost enters.
        entering = -1
        for j, v in enumerate(A[m][:-1]):
            if v < 0 and (entering < 0 or cols[j] < cols[entering]):
                entering = j
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
            # Reduced in line, not through `_reduced`: this is the hot loop.
            den = pg * D[i]
            g = gcd(den, *new)
            if g != 1:
                new = [v // g for v in new]
                den //= g
            A[i], D[i] = new, den
    A[row], D[row] = _reduced(piv, p)
    basis[row], cols[col] = cols[col], basis[row]
