"""Width exponents as minima of piecewise-linear objectives.

The decay exponent of the widths d_n of a smoothness class (r̄, p̄, q) is the
minimum of a finite max of affine functions over a simplex-like domain:

    q ≤ 2:   h(ᾱ)     over D  = {ᾱ ≥ 0, Σ α_j = 1},
    q > 2:   h̃(ᾱ, s)  over D̃ = {ᾱ ≥ 0, Σ α_j = s, 1 ≤ s ≤ q/2},

where the affine pieces are the rows of `params.piece_rows` for x_j = 1/p_j
and x_q = 1/q (the large-p, mid-p, small-p, cross-lambda and cross-mu
families, in that order); a family with no switched-on index contributes
no pieces.

The minimum, its argmin, whether the argmin is the unique minimiser, and
the active pieces there are all computed exactly with a rational simplex.
Whether the class is compactly embedded is not read off the sign of θ: the
LP objective encodes the width estimate only under the paper's hypotheses,
so compactness is decided by `closedform.check_compact`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from ._simplex import solve_lp
from .params import ParameterError, ProblemSpec

__all__ = [
    "AffinePiece",
    "PiecewiseMax",
    "ExponentResult",
    "build_objective",
    "minimize",
    "candidate_vertices",
    "classify_region",
    "render_provenance",
]

_HALF = Fraction(1, 2)
_ONE = Fraction(1)
_ZERO = Fraction(0)

#: Provenance tag: (family, indices), 0-based indices.
Provenance = tuple[str, tuple[int, ...]]


def render_provenance(tag: Provenance) -> str:
    """Human form of a piece tag, 1-based: cross-lambda[i=1,j=3]."""
    family, idx = tag
    if len(idx) == 1:
        return f"{family}[j={idx[0] + 1}]"
    return f"{family}[i={idx[0] + 1},j={idx[1] + 1}]"


@dataclass(frozen=True)
class AffinePiece:
    """One affine piece  Σ coeffs_j α_j + s_coeff·s + const."""

    coeffs: tuple[Fraction, ...]
    s_coeff: Fraction
    const: Fraction
    provenance: Provenance

    def value(self, alpha: tuple[Fraction, ...], s: Fraction | None = None) -> Fraction:
        acc = sum((c * a for c, a in zip(self.coeffs, alpha)), start=self.const)
        if self.s_coeff:
            if s is None:
                raise ParameterError("piece has an s term but no s was given")
            acc += self.s_coeff * s
        return acc


@dataclass(frozen=True)
class PiecewiseMax:
    """max over pieces, together with its domain description."""

    dim: int
    has_s: bool
    s_max: Fraction | None  # q/2 when has_s, else None
    pieces: tuple[AffinePiece, ...]

    def value(self, alpha: tuple[Fraction, ...], s: Fraction | None = None) -> Fraction:
        if len(alpha) != self.dim:
            raise ParameterError(f"point has {len(alpha)} coordinates, objective wants {self.dim}")
        if self.has_s and s is None:
            raise ParameterError("objective needs an s coordinate")
        return max(p.value(alpha, s) for p in self.pieces)


@dataclass(frozen=True)
class ExponentResult:
    theta: Fraction
    argmin_alpha: tuple[Fraction, ...]
    argmin_s: Fraction | None
    unique: bool
    active_pieces: tuple[Provenance, ...]


def build_objective(spec: ProblemSpec) -> PiecewiseMax:
    """Assemble the exact piecewise objective for `spec` (regime-dependent)."""
    d, r = spec.d, spec.r
    high = spec.q > 2
    pieces = []
    for family, idx, weights, t_coeff, logn_coeff, _ in spec.rows(high):
        coeffs = [_ZERO] * d
        for i, w in zip(idx, weights):
            coeffs[i] = w * r[i]
        if high:
            s_coeff, const = t_coeff, logn_coeff
        else:
            s_coeff, const = _ZERO, t_coeff
        pieces.append(AffinePiece(tuple(coeffs), s_coeff, const, (family, idx)))
    s_max = spec.q / 2 if high else None
    return PiecewiseMax(dim=d, has_s=high, s_max=s_max, pieces=tuple(pieces))


def _epigraph_lp(obj: PiecewiseMax):
    """Integer standard-form data for  min t  s.t.  pieces ≤ t  on the domain.

    Variables (all ≥ 0):  α_0..α_{d−1} [, σ] , t⁺, t⁻   with s = 1 + σ and
    t = t⁺ − t⁻ (θ may be negative for non-compact classes).  The rows are
    (Σ α − σ = 1 or Σ α = 1), then σ ≤ q/2 − 1 when there is an s, then one
    row per piece.  Each ≤ row is its rational row times the lcm of its
    denominators, so every row is a list of `int`s; those factors come back
    last.  The piece rows have b = −const − s_coeff ≥ 0, so each starts on
    its slack, and scaling a row that starts on its slack changes neither
    the pivots nor which slacks are zero.
    """
    d = obj.dim
    n = d + (1 if obj.has_s else 0) + 2
    cost = [0] * n
    cost[-2], cost[-1] = 1, -1
    row = [1] * d + [0] * (n - d)
    if obj.has_s:
        row[d] = -1
    A_eq, b_eq = [row], [1]
    A_ub, b_ub, scale = [], [], []
    if obj.has_s:
        bound = obj.s_max - _ONE
        up = [0] * n
        up[d] = bound.denominator
        A_ub.append(up)
        b_ub.append(bound.numerator)
        scale.append(bound.denominator)
    for piece in obj.pieces:
        const = piece.const
        terms = [(i, c) for i, c in enumerate(piece.coeffs) if c]
        if obj.has_s:
            terms.append((d, piece.s_coeff))
        den = lcm(const.denominator, *(c.denominator for _, c in terms))
        row = [0] * n
        for i, c in terms:
            row[i] = c.numerator * (den // c.denominator)
        row[-2], row[-1] = -den, den
        A_ub.append(row)
        # piece ≤ t with s = 1 + σ folds s_coeff into the constant.
        b_ub.append(-const.numerator * (den // const.denominator) - (row[d] if obj.has_s else 0))
        scale.append(den)
    return cost, A_eq, b_eq, A_ub, b_ub, scale


def _face_is_a_point(obj: PiecewiseMax, theta: Fraction) -> bool:
    """Probe each coordinate's minimum and maximum over the optimal face.

    The face is the epigraph LP's feasible set with t⁺ − t⁻ = θ added:
    every point of the domain has objective ≥ θ, so pieces ≤ θ pins it
    exactly.  The t⁺/t⁻ columns are not probed; only their difference is
    fixed.
    """
    _, A_eq, b_eq, A_ub, b_ub, _ = _epigraph_lp(obj)
    n = len(A_eq[0])
    pin = [0] * n
    pin[n - 2], pin[n - 1] = 1, -1
    A_eq, b_eq = A_eq + [pin], b_eq + [theta]
    for var in range(n - 2):
        c = [0] * n
        c[var] = 1
        lo = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
        c[var] = -1
        hi = solve_lp(c, A_eq, b_eq, A_ub, b_ub)
        if lo.status != "optimal" or hi.status != "optimal":
            raise ParameterError("optimal face probe failed")
        if lo.value != -hi.value:
            return False
    return True


def _tableau_certifies_unique(res, split: tuple[int, int]) -> bool:
    """Whether the optimal tableau alone proves the argmin unique.

    At an optimum every feasible point costs θ plus Σ rc_j x_j over the
    nonbasic columns, so a column with a strictly positive reduced cost is
    zero on the whole optimal face.  If that holds for every nonbasic
    column, the optimal basic solution is the only optimum (Mangasarian,
    "Uniqueness of solution in linear programming", LAA 25, 1979).  The
    split t = t⁺ − t⁻ is exempt: its columns are negatives of each other,
    one of them is basic, and the other has reduced cost 0 and moves only
    the split, never (ᾱ, s) or t.  A zero reduced cost elsewhere (a
    dual-degenerate optimum) leaves the question open.
    """
    basic = set(res.basis)
    return all(
        rc > 0
        for j, rc in enumerate(res.reduced_costs)
        if j not in basic and j not in split
    )


def _vertex_from_artificials(cost, A_eq, b_eq, A_ub, b_ub, scale):
    """(x, slacks) of the epigraph LP solved with every row on an artificial.

    Each ≤ row goes in as an equality row over its own explicit slack
    column, at its rational scale (row / scale), so phase 1 starts with an
    artificial on every row and minimises their plain sum.
    """
    n, k = len(cost), len(A_ub)
    rows = [row + [0] * k for row in A_eq]
    for j, (row, f) in enumerate(zip(A_ub, scale)):
        unit = [0] * k
        unit[j] = 1
        rows.append([Fraction(v, f) for v in row] + unit)
    b = b_eq + [Fraction(v, f) for v, f in zip(b_ub, scale)]
    res = solve_lp(cost + [0] * k, rows, b)
    return res.x[:n], res.x[n:]


def minimize(obj: PiecewiseMax) -> ExponentResult:
    """Exact minimum of the objective over its domain, with uniqueness.

    The epigraph LP gives θ, read off its final reduced-cost row, and an
    optimal vertex.  Uniqueness is read off its optimal tableau when every
    nonbasic reduced cost (the t⁺/t⁻ split aside) is strictly positive.
    Otherwise it is decided by probing the optimal face: the face is a
    polytope, and it is a single point iff every coordinate has equal
    minimum and maximum over it (face dimension zero).

    The active pieces are those whose epigraph row has a zero slack at the
    vertex: there t = θ, the maximum of the pieces.  θ and uniqueness do
    not depend on the vertex.  A unique argmin is the vertex every start
    reaches; when the argmin is not unique, the LP is solved once more from
    an artificial on every row, and the argmin and active pieces are read
    from that vertex, so the reported point of a flat objective stays fixed.
    """
    if not obj.pieces:
        raise ParameterError("objective has no pieces")
    cost, A_eq, b_eq, A_ub, b_ub, scale = _epigraph_lp(obj)
    res = solve_lp(cost, A_eq, b_eq, A_ub, b_ub)
    if res.status != "optimal":  # the domain is compact and nonempty
        raise ParameterError(f"degenerate objective: LP status {res.status}")
    theta = res.value
    split = (len(cost) - 2, len(cost) - 1)
    unique = _tableau_certifies_unique(res, split) or _face_is_a_point(obj, theta)
    x, slack = res.x, res.slack
    if not unique:
        x, slack = _vertex_from_artificials(cost, A_eq, b_eq, A_ub, b_ub, scale)
    d = obj.dim
    first = len(A_ub) - len(obj.pieces)  # the σ bound row comes first
    return ExponentResult(
        theta=theta,
        argmin_alpha=x[:d],
        argmin_s=_ONE + x[d] if obj.has_s else None,
        unique=unique,
        active_pieces=tuple(
            piece.provenance for piece, gap in zip(obj.pieces, slack[first:]) if not gap
        ),
    )


def candidate_vertices(
    spec: ProblemSpec,
) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
    """The four candidate minimisers ξ_1..ξ_4 for q > 2 (exact).

    ξ_1 = (ᾱ¹, 1), ξ_2 = (ᾱ², 1), ξ_3 = ((q/2)ᾱ², q/2), ξ_4 = ((q/2)ᾱ¹, q/2)

    where ᾱ¹ equalises r_j α_j and ᾱ² equalises the small-p pieces:

        α¹_j = (1/r_j) / Σ_i (1/r_i)
        α²_j = (1 − Σ_i (1/r_i)(1/p_i − 1/p_j)) / (r_j Σ_i (1/r_i)).

    Requires q > 2 and all regularity sums < 1 (so every ᾱ² coordinate is
    positive and the points are genuinely inside the domain).
    """
    if spec.q <= 2:
        raise ParameterError("candidate vertices are defined for q > 2")
    margins = spec.reg_sums
    if any(m >= 1 for m in margins):
        raise ParameterError("regularity sums must all be < 1 for candidate vertices")
    inv_r_sum = sum(spec.inv_r)
    a1 = tuple(ir / inv_r_sum for ir in spec.inv_r)
    a2 = tuple((_ONE - margins[j]) / (spec.r[j] * inv_r_sum) for j in range(spec.d))
    half_q = spec.q / 2
    a3 = tuple(half_q * v for v in a2)
    a4 = tuple(half_q * v for v in a1)
    return ((a1, _ONE), (a2, _ONE), (a3, half_q), (a4, half_q))


def classify_region(
    spec: ProblemSpec, alpha: tuple[Fraction, ...], s: Fraction
) -> Provenance:
    """Which piece is active at (ᾱ, s), decided by inequality systems only.

    This is the deliberately LP-free route: each piece family owns a region
    of the domain cut out by exact linear inequalities in (ᾱ, s), and the
    active piece at a point can be read off from which system the point
    satisfies.  Requires q > 2 and every p_i off the thresholds 2 and q
    (on thresholds the regions are glued and the answer is ambiguous);
    the point must be feasible.  Boundaries between regions are resolved
    by scanning families in a fixed order, so the returned piece is always
    one of the active ones.
    """
    q = spec.q
    if q <= 2:
        raise ParameterError("region classification is defined for q > 2")
    for j, pj in enumerate(spec.p):
        if pj == 2 or pj == q:
            raise ParameterError(f"p{j + 1} on a threshold (2 or q): regions are glued")
    d = spec.d
    if len(alpha) != d:
        raise ParameterError("point dimension mismatch")
    if any(a < 0 for a in alpha) or sum(alpha) != s or not (_ONE <= s <= q / 2):
        raise ParameterError("point is not in the feasible domain")
    x = spec.x
    g = [alpha[j] * spec.r[j] for j in range(d)]
    theta_q = _HALF - spec.x_q
    s1 = s - _ONE

    I = [j for j, pj in enumerate(spec.p) if pj >= q]
    J = [j for j, pj in enumerate(spec.p) if 2 <= pj <= q]
    K = [j for j, pj in enumerate(spec.p) if pj <= 2]

    def ratio(i: int, j: int) -> Fraction:
        return (g[i] - g[j]) / (x[i] - x[j])

    for j in I:
        if all(g[j] - g[i] >= 0 for i in range(d)):
            return ("large-p", (j,))
    for j in J:
        if all(g[j] - g[i] >= _HALF * ((x[j] - x[i]) / theta_q) * s1 for i in range(d)):
            return ("mid-p", (j,))
    for j in K:
        if all(g[j] - g[i] >= s * x[j] - s * x[i] for i in range(d)):
            return ("small-p", (j,))
    for i in I:
        for j in sorted(J + K):
            if g[i] - g[j] > 0:
                continue
            if g[i] - g[j] < _HALF * ((x[i] - x[j]) / theta_q) * s1:
                continue
            rij = ratio(i, j)
            if all(rij >= ratio(i, k) for k in J + K if k != j):
                if all(rij <= ratio(k, j) for k in I if k != i):
                    return ("cross-lambda", (i, j))
    for i in sorted(I + J):
        for j in K:
            if g[i] - g[j] > _HALF * ((x[i] - x[j]) / theta_q) * s1:
                continue
            if g[i] - g[j] < s * x[i] - s * x[j]:
                continue
            rij = ratio(i, j)
            if all(rij >= ratio(i, k) for k in K if k != j):
                if all(rij <= ratio(k, j) for k in I + J if k != i):
                    return ("cross-mu", (i, j))
    raise ParameterError("no region system matched (should be impossible on the domain)")
