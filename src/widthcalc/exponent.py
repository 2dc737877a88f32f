"""Width exponents as minima of piecewise-linear objectives.

The decay exponent of the widths d_n of a smoothness class (r̄, p̄, q) is the
minimum of a finite max of affine functions over a simplex-like domain:

    q ≤ 2:   h(ᾱ)     over D  = {ᾱ ≥ 0, Σ α_j = 1},
    q > 2:   h̃(ᾱ, s)  over D̃ = {ᾱ ≥ 0, Σ α_j = s, 1 ≤ s ≤ q/2},

where the affine pieces are the rows of `params.piece_rows` for x_j = 1/p_j
and x_q = 1/q (the large-p, mid-p, small-p, cross-lambda and cross-mu
families, in that order); a family with no switched-on index contributes
no pieces.  `build_objective` takes them as `ProblemSpec.rate_rows`,
integers over one denominator, and reads a row at (α_1, …, α_d, s, 1) with
s = Σ α_j: h̃ is the max of Σ w_i r_i α_i + t_coeff·s + logn_coeff over the
q > 2 rows, and h the same over the low-shape rows at s = 1.

The minimum, its argmin, whether the argmin is the unique minimiser, the
active pieces there and the dual weights of the pieces are all computed
exactly with a rational simplex; `oracle.check_certificate` checks the
minimum from the weights and the argmin without it.  `minimize` reads the
optimal tableau once, through `LpResult.vertex`: θ, the argmin (σ turned
into s = 1 + σ) and the labels with a positive value.  The only `Fraction`s
it builds are θ, s and each nonzero α_j, and every zero α_j is one shared
`Fraction(0)`; uniqueness and the active pieces are read off the signs of
the tableau's integers.  The dual weights are built from the kept tableau
only when `ExponentResult.weights` is read.
Whether the class is compactly embedded is not read off the sign of θ: the
LP objective encodes the width estimate only under the paper's hypotheses,
so compactness is decided by `classify_regime(spec).compact` in `closedform`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd

from ._simplex import solve_lp
from .params import ParameterError, ProblemSpec

__all__ = [
    "PiecewiseMax",
    "ExponentResult",
    "build_objective",
    "minimize",
    "render_provenance",
]

#: Provenance tag: (family, indices), 0-based indices.
Provenance = tuple[str, tuple[int, ...]]


def render_provenance(tag: Provenance) -> str:
    """Human form of a piece tag, 1-based: cross-lambda[i=1,j=3]."""
    family, idx = tag
    if len(idx) == 1:
        return f"{family}[j={idx[0] + 1}]"
    return f"{family}[i={idx[0] + 1},j={idx[1] + 1}]"


@dataclass(frozen=True)
class PiecewiseMax:
    """max over pieces, together with its domain description.

    Each piece is (tag, row): the row is L times the coefficients of
    (α_1, …, α_d, s, 1), all integers, from `ProblemSpec.rate_rows`.
    """

    dim: int
    has_s: bool
    s_max: tuple[int, int] | None  # q/2 as (numerator, denominator), lowest terms
    L: int
    pieces: tuple[tuple[Provenance, tuple[int, ...]], ...]


@dataclass(frozen=True)
class ExponentResult:
    theta: Fraction
    argmin_alpha: tuple[Fraction, ...]
    argmin_s: Fraction | None
    unique: bool
    active_pieces: tuple[Provenance, ...]
    # (optimal LpResult, its ≤ rows, the pieces), for `weights`: a field, so
    # `dataclasses.replace` carries it to the copy.
    _tableau: tuple = field(repr=False, compare=False)

    @property
    def weights(self) -> tuple[tuple[Provenance, Fraction], ...]:
        """The LP dual weights λ_k > 0 of the pieces, by tag, in piece order.

        λ_k is the reduced cost of piece k's slack in the optimal tableau
        times that row's scale, its t⁻ coefficient, so Σ λ_k = 1.  Built on
        each read from the tableau `minimize` keeps; no LP runs.
        """
        res, A_ub, pieces = self._tableau
        k = len(pieces)  # the piece rows, and their slacks, come last
        return tuple(
            (tag, rc * row[-1])
            for (tag, _), rc, row in zip(pieces, res.reduced_costs[-k:], A_ub[-k:])
            if rc
        )


def build_objective(spec: ProblemSpec) -> PiecewiseMax:
    """Assemble the exact piecewise objective for `spec` (regime-dependent).

    Its pieces are `spec.rate_rows` in the shape of q as they stand: each
    row's (family, indices) tag and integer coefficients come from the one
    table, so no row is rebuilt here.
    """
    # On the spec's integer scale 1/q = Q/D, so q > 2 iff 2Q < D, and q/2 = D/(2Q).
    D, Q2 = spec.D, 2 * spec.Q
    high = Q2 < D
    L, pieces = spec.rate_rows(high)
    s_max = None
    if high:
        g = gcd(D, Q2)
        s_max = D // g, Q2 // g
    # Frozen: the fields go straight into the instance dict.
    obj = PiecewiseMax.__new__(PiecewiseMax)
    obj.__dict__.update(dim=len(spec.r), has_s=high, s_max=s_max, L=L, pieces=pieces)
    return obj


def _epigraph_lp(obj: PiecewiseMax):
    """Integer standard-form data for  min t  s.t.  pieces ≤ t  on the domain.

    Variables (all ≥ 0):  α_0..α_{d−1} [, σ] , t⁺, t⁻   with s = 1 + σ and
    t = t⁺ − t⁻ (θ may be negative for non-compact classes).  The rows are
    (Σ α − σ = 1 or Σ α = 1), then σ ≤ q/2 − 1 when there is an s, then one
    row per piece.  A piece row (a_1, …, a_d, c_s, c_1) over L reads
    Σ a_j α_j + c_s·s + c_1 ≤ L·t; with s = 1 + σ, and s = 1 when q ≤ 2,
    that is  Σ a_j α_j [+ c_s·σ] − L·t ≤ −(c_s + c_1),  divided by
    g = gcd(L, a_1, …, a_d, c_s, c_1), so every row is a list of `int`s.
    Each has b ≥ 0, so it starts on its slack, and scaling a row that starts
    on its slack by a positive factor changes neither Bland's pivots nor
    which slacks are zero.  Returns (cost, A_eq, b_eq, A_ub, b_ub) for
    `solve_lp`.
    """
    d, L, has_s = obj.dim, obj.L, obj.has_s
    n = d + has_s + 2
    cost = [0] * n
    cost[-2], cost[-1] = 1, -1
    row = [1] * d + [0] * (n - d)
    if has_s:
        row[d] = -1
    A_eq, b_eq = [row], [1]
    A_ub, b_ub = [], []
    if has_s:
        # σ ≤ q/2 − 1 = (a − b)/b, in lowest terms as q/2 = a/b is.
        a, b = obj.s_max
        up = [0] * n
        up[d] = b
        A_ub.append(up)
        b_ub.append(a - b)
    for _, coeffs in obj.pieces:
        g = gcd(L, *coeffs)
        row = [c // g for c in coeffs] if g != 1 else list(coeffs)
        c_1 = row.pop()
        c_s = row[d] if has_s else row.pop()
        row += (-L // g, L // g)
        A_ub.append(row)
        b_ub.append(-c_s - c_1)
    return cost, A_eq, b_eq, A_ub, b_ub


def _argmin_is_unique(res, cost, A_eq, b_eq, A_ub, b_ub) -> bool:
    """Whether the optimal vertex `res` of the epigraph LP is its only argmin.

    At an optimum every feasible point costs θ plus Σ rc_j x_j over the
    standard-form columns (the variables, then one slack per ≤ row), so the
    optimal face is the feasible set with every column of positive reduced
    cost held at 0.  The free columns are the nonbasic ones with reduced
    cost 0, except the split t = t⁺ − t⁻: its columns are negatives of each
    other, one of them is basic, and the other moves only the split, never
    (ᾱ, s) or t.  The vertex is the only optimum iff every free column is 0
    on the whole face (Mangasarian, "Uniqueness of solution in linear
    programming", LAA 25, 1979).  With no free column that is read off the
    tableau.  Otherwise one LP over the face maximises the sum of the free
    columns: a structural column of positive reduced cost is dropped, a ≤
    row whose slack has positive reduced cost becomes an equality, the other
    ≤ rows stay ≤ rows, and a free slack k enters the sum as b_k − A_k·x.
    The argmin is unique iff that maximum is 0.
    """
    n = len(cost)
    zero = res.zero_cost_nonbasic()
    free = zero - {n - 2, n - 1}
    if not free:
        return True
    # The columns of reduced cost 0, the basic ones and `zero`, read off the
    # signs of the tableau's integers.
    flat = {*res.basis, *zero}
    # Σ free = Σ_k b_k − c·x over the free slacks k, so its maximum is 0 iff
    # the least c·x over the face is Σ_k b_k.
    slacks = [j - n for j in free if j >= n]
    c = [sum(A_ub[k][j] for k in slacks) - (j in free) for j in range(n)]
    keep = [j for j in range(n) if j in flat]
    # A ≤ row whose slack has positive reduced cost is an equality on the face.
    tight = [k for k in range(len(A_ub)) if n + k not in flat]
    loose = [k for k in range(len(A_ub)) if n + k in flat]
    face = solve_lp(
        [c[j] for j in keep],
        [[row[j] for j in keep] for row in A_eq + [A_ub[k] for k in tight]],
        b_eq + [b_ub[k] for k in tight],
        [[A_ub[k][j] for j in keep] for k in loose],
        [b_ub[k] for k in loose],
    )
    if face.status != "optimal":  # the face is bounded in (ᾱ, s, t) and holds the vertex
        raise ParameterError(f"optimal face LP status {face.status}")
    return face.value == sum(b_ub[k] for k in slacks)


def minimize(obj: PiecewiseMax) -> ExponentResult:
    """Exact minimum of the objective over its domain, with uniqueness.

    One epigraph LP gives θ, read off its final reduced-cost row, and an
    optimal vertex, which is the reported argmin; `LpResult.vertex` reads
    both, and the labels with a positive value, in one pass, and the only
    `Fraction`s built are θ, s and the nonzero α_j.  The active pieces are
    those whose epigraph row has a zero slack at that vertex, whose label
    has no positive value: there t = θ, the maximum of the pieces.  Whether
    the argmin is the only minimiser is decided from the same optimal
    tableau by `_argmin_is_unique`, which solves one more LP, over the
    optimal face, only when a nonbasic column other than the t⁺/t⁻ split
    has reduced cost 0.  θ and uniqueness do not depend on the vertex; a
    unique argmin is the vertex every start reaches, and a non-unique one is
    the vertex this solve stops at.  The dual weights
    (`ExponentResult.weights`) come off the same tableau when read.
    """
    if not obj.pieces:
        raise ParameterError("objective has no pieces")
    lp = _epigraph_lp(obj)
    res = solve_lp(*lp)
    if res.status != "optimal":  # the domain is compact and nonempty
        raise ParameterError(f"degenerate objective: LP status {res.status}")
    d = obj.dim
    theta, alpha, levels = res.vertex(d)
    argmin_s = None
    if obj.has_s:  # s = 1 + σ = (den + v)/den for σ = v/den
        v, den = levels.get(d, (0, 1))
        argmin_s = Fraction(den + v, den)
    # The active pieces: those whose slack has no positive value.  The first
    # piece's slack label follows the variables and the σ bound row's slack.
    first = len(lp[0]) + len(lp[3]) - len(obj.pieces)
    active = []
    for j, (tag, _) in enumerate(obj.pieces, first):
        if j not in levels:
            active.append(tag)
    # Frozen: the fields, and the tableau for `weights`, go straight into
    # the instance dict.
    result = ExponentResult.__new__(ExponentResult)
    result.__dict__.update(
        theta=theta,
        argmin_alpha=alpha,
        argmin_s=argmin_s,
        unique=_argmin_is_unique(res, *lp),
        active_pieces=tuple(active),
        _tableau=(res, lp[3], obj.pieces),
    )
    return result

