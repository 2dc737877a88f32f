"""Width orders of finite-dimensional ball intersections, with certificates.

Everything here lives in ℓ_q^N.  B_p^N is the unit ball of ℓ_p^N, and the
object of interest is

    M0 = ∩_α ν_α B_{p_α}^N,        d_n(M0, ℓ_q^N) = width after the best
                                                     rank-n approximation.

Single balls have known orders (exact for q ≤ p), and an intersection's
order is the minimum of closed-form terms, one per ball or interacting
ball pair: the rows of `params.piece_rows` at x_α = 1/p_α and x_q = 1/q,
read as ν-products times powers of N and of g = n^(−1/2) N^(1/q).  The
terms hold on 0 ≤ n ≤ N/2 for q ≤ 2 and on N^(2/q) ≤ n ≤ N/2 for q > 2.
`IntersectionSpec` refuses an n outside that window when it is built, and
it carries x_q = 1/q, g and the terms from then on.

The least term names one ball or one pair, and `classify_branch` proves
that term a lower bound as well, from one of three convex bodies placed
inside M0 (up to a factor 2):

    B1-inclusion    scaled ℓ_1 ball (1-sparse vertices),
    Binf-inclusion  scaled ℓ_∞ ball (full cube),
    Vk-inclusion    scaled V_k, the convex hull of all ±1 vectors with
                    exactly k nonzero entries (max ℓ_p vertex norm k^(1/p)).

Equal terms go to the first family in the case order small → large → mid
→ cross-lambda → cross-mu.  The certificate records the sparsity k, the
scaling, every inequality the inclusion and the V_k width bound need, and
the certified value, which equals the least term exactly.  Values are
`PowerProduct`s, so all checks are exact; the factor 2 lost by rounding
the ideal sparsity l to an integer k is folded into the recorded
right-hand sides.  A ball on a threshold (p = q, or p = 2 for q > 2) is
left `unclassified`, without a certificate.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from .params import (
    ParameterError, ProblemSpec, RangeError, as_fraction, over_one_denominator, piece_rows
)
from .values import PowerProduct, inv_exponent, is_inf

__all__ = [
    "BallSpec",
    "IntersectionSpec",
    "CheckedInequality",
    "LowerBoundCertificate",
    "WidthOrder",
    "single_ball_order",
    "intersection_order",
    "classify_branch",
    "vk_vertex_norm",
    "MAX_BLOCK_RANK",
    "block_profile",
    "dyadic_block_order",
    "phi_value",
    "psi_value",
]

_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_TWO = Fraction(2)


def _check_dimensions(N, n) -> None:
    """Refuse an ambient dimension N or a width index n outside 0 ≤ n ≤ N."""
    if not isinstance(N, int) or N < 1:
        raise ParameterError(f"N must be a positive integer, got {N!r}")
    if not isinstance(n, int) or n < 0 or n > N:
        raise ParameterError(f"n must be an integer in [0, N], got {n!r}")


@dataclass(frozen=True)
class BallSpec:
    """One ball ν · B_p^N; p may be the INF sentinel, ν is exact positive."""

    p: Fraction | object
    nu: PowerProduct

    def __init__(self, p, nu):
        if not is_inf(p):
            p = as_fraction(p)
            if p < 1:
                raise ParameterError(f"ball exponent p = {p} must be ≥ 1")
        nu = nu if isinstance(nu, PowerProduct) else as_fraction(nu)
        if not nu > 0:
            raise ParameterError("ball radius must be positive")
        if isinstance(nu, Fraction):
            nu = PowerProduct.from_fraction(nu)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "nu", nu)


@dataclass(frozen=True)
class IntersectionSpec:
    """M0 = ∩ ν_α B_{p_α}^N viewed in ℓ_q^N with an approximation budget n.

    Construction refuses an n outside the display window (n ≤ N/2, and
    n ≥ N^(2/q) for q > 2) with a `RangeError`, and keeps, once: the tuples
    `x` (1/p_α, with 1/∞ = 0) and `nu` (ν_α) of the balls, `x_q` = 1/q,
    `g` = n^(−1/2) N^(1/q) (None for q ≤ 2), and `terms`, the display
    terms (family, indices, value) in `piece_rows` order.  The rows are
    read at x̄ and 1/q put over one even denominator, and each term's
    exponents are built as `Fraction`s from its row's integers over its
    den.  None of these takes part in ==, hash or repr.
    """

    N: int
    n: int
    q: Fraction
    balls: tuple[BallSpec, ...]

    def __init__(self, N, n, q, balls):
        _check_dimensions(N, n)
        q = as_fraction(q)
        if q < 1:
            raise ParameterError(f"q = {q} must be ≥ 1")
        balls = tuple(
            b if isinstance(b, BallSpec) else BallSpec(*b) for b in balls
        )
        if not balls:
            raise ParameterError("at least one ball is required")
        object.__setattr__(self, "N", N)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "balls", balls)
        if 2 * n > N:
            raise RangeError(f"need n ≤ N/2, got n = {n}, N = {N}")
        x_q, g = _ONE / q, None
        if q > 2:
            # n ≥ N^(2/q)  ⟺  n^q ≥ N², checked exactly without raising n to q's numerator.
            if n == 0 or PowerProduct.from_pow(n, q) < PowerProduct.from_pow(N, _TWO):
                raise RangeError(f"q > 2 needs n ≥ N^(2/q), got n = {n}, N = {N}, q = {q}")
            g = PowerProduct.from_pow(n, Fraction(-1, 2)) * PowerProduct.from_pow(N, x_q)
        x, nu = tuple(inv_exponent(b.p) for b in balls), tuple(b.nu for b in balls)
        # x̄ and 1/q over one even denominator, as `piece_rows` reads them.
        D, (*X, Q, _) = over_one_denominator((*x, x_q, _HALF))
        terms = []
        rows = piece_rows(X, Q, D, g is not None)
        for family, idx, den, weights, _, logn_coeff, n_power in rows:
            factors = [nu[i] ** Fraction(w, den) for i, w in zip(idx, weights)]
            if n_power:
                factors.append(PowerProduct.from_pow(N, Fraction(n_power, den)))
            if logn_coeff:
                factors.append(g ** Fraction(2 * logn_coeff, den))
            terms.append((family, idx, functools.reduce(operator.mul, factors)))
        # Frozen: the derived values go straight into the instance dict.
        self.__dict__.update(x=x, nu=nu, x_q=x_q, g=g, terms=tuple(terms))


@dataclass(frozen=True)
class CheckedInequality:
    """lhs ≤ rhs, stored exactly; `holds` is re-derived, never trusted."""

    label: str
    lhs: PowerProduct
    rhs: PowerProduct

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


@dataclass(frozen=True)
class LowerBoundCertificate:
    kind: str  # "B1-inclusion" | "Binf-inclusion" | "Vk-inclusion"
    k: int
    scale: PowerProduct
    certified_value: PowerProduct
    checked: tuple[CheckedInequality, ...]
    note: str = ""

    def verify(self) -> bool:
        return all(c.holds for c in self.checked)


@dataclass(frozen=True)
class WidthOrder:
    value: PowerProduct
    branch: str


# ---------------------------------------------------------------------------
# single balls


def vk_vertex_norm(p, k: int) -> PowerProduct:
    """max ℓ_p norm over V_k (attained at any vertex): k^(1/p)."""
    if k < 1:
        raise ParameterError(f"sparsity k must be ≥ 1, got {k}")
    return PowerProduct.from_pow(k, inv_exponent(p))


def single_ball_order(N: int, n: int, p, q) -> WidthOrder:
    """Order of d_n(B_p^N, ℓ_q^N).

    q ≤ p: exact equality (N−n)^(1/q−1/p) on 0 ≤ n ≤ N ("exact").
    p < q: order on 0 ≤ n ≤ N/2: 1 for q ≤ 2 ("unit"); for q > 2,
    min{1, g}^ω with g = n^(−1/2) N^(1/q) and ω = min{1, (x_p−x_q)/θ_q}
    ("unit" when the min saturates at 1, else "gaussian").

    The INF sentinel is accepted for p always and for q only alongside
    p = INF (the exact route is the only one defined there).
    """
    _check_dimensions(N, n)
    if not is_inf(p) and as_fraction(p) < 1:
        raise ParameterError(f"p = {p} must be ≥ 1")
    x_p = inv_exponent(p)
    if is_inf(q):
        if not is_inf(p):
            raise ParameterError("q = inf is only supported with p = inf")
        x_q = Fraction(0)
    else:
        q = as_fraction(q)
        if q < 1:
            raise ParameterError(f"q = {q} must be ≥ 1")
        x_q = _ONE / q
    if x_q >= x_p:  # q ≤ p: exact width
        if n == N:
            return WidthOrder(PowerProduct.zero(), "exact")
        return WidthOrder(PowerProduct.from_pow(N - n, x_q - x_p), "exact")
    if 2 * n > N:
        raise RangeError(f"p < q needs n ≤ N/2, got n = {n}, N = {N}")
    if x_q >= _HALF:  # q ≤ 2
        return WidthOrder(PowerProduct.one(), "unit")
    omega = min(_ONE, (x_p - x_q) / (_HALF - x_q))
    if n == 0:
        return WidthOrder(PowerProduct.one(), "unit")
    g = PowerProduct.from_pow(n, Fraction(-1, 2)) * PowerProduct.from_pow(N, x_q)
    if g >= PowerProduct.one():
        return WidthOrder(PowerProduct.one(), "unit")
    return WidthOrder(g ** omega, "gaussian")


# ---------------------------------------------------------------------------
# intersections


def _least(terms):
    """The first term of least value."""
    best = terms[0]
    for term in terms[1:]:
        if term[2] < best[2]:
            best = term
    return best


def intersection_order(spec: IntersectionSpec) -> WidthOrder:
    """min over the display terms; branch = family of the first minimum."""
    family, _, value = _least(spec.terms)
    return WidthOrder(value, family)


# ---------------------------------------------------------------------------
# branch classification with certificates


def _int_ceil(x: PowerProduct) -> int:
    k = x.approx_floor_ceil()[1]
    while PowerProduct.from_fraction(max(k, 1)) < x:
        k += 1
    while k >= 1 and x <= PowerProduct.from_fraction(k - 1):
        k -= 1
    return max(k, 1)


def _int_floor(x: PowerProduct) -> int:
    k = x.approx_floor_ceil()[0]
    while k >= 1 and PowerProduct.from_fraction(k) > x:
        k -= 1
    while x >= PowerProduct.from_fraction(k + 1):
        k += 1
    return k


def _budget_checks(spec: IntersectionSpec, k: int, high_side: bool) -> list[CheckedInequality]:
    """Range inequalities the V_k width bound needs at sparsity k.

    high_side=False: the k^(1/q) branch, needing n ≤ N^(2/q) k^(1−2/q)
    (trivial for q ≤ 2, where only n ≤ N/2 matters).
    high_side=True: the k^(1/2) g branch, needing n ≥ N^(2/q) k^(1−2/q).
    """
    checks = [
        CheckedInequality(
            "range[2n <= N]",
            PowerProduct.from_fraction(2 * spec.n),
            PowerProduct.from_fraction(spec.N),
        )
    ]
    if spec.q > 2:
        two_x_q = 2 * spec.x_q
        pivot = PowerProduct.from_pow(spec.N, two_x_q) * PowerProduct.from_pow(k, 1 - two_x_q)
        n_val = PowerProduct.from_fraction(spec.n)
        if high_side:
            checks.append(CheckedInequality("range[n >= N^(2/q) k^(1-2/q)]", pivot, n_val))
        else:
            checks.append(CheckedInequality("range[n <= N^(2/q) k^(1-2/q)]", n_val, pivot))
    return checks


def _dominance(
    spec: IntersectionSpec, alpha: int, l: PowerProduct, label: str
) -> list[CheckedInequality]:
    """The rows `label[gamma=γ]`: ν_α l^(x_γ − x_α) ≤ ν_γ for every ball γ.

    They say that the test body scaled to ball α at sparsity l lies in
    every ball: l = 1 for B1, l = N for B∞, the V_k sparsity otherwise.
    """
    x, nu = spec.x, spec.nu
    return [
        CheckedInequality(f"{label}[gamma={g}]", nu[alpha] * l ** (x[g] - x[alpha]), nu[g])
        for g in range(len(nu))
    ]


def _vk_certificate(
    spec: IntersectionSpec,
    alpha: int,
    l_value: PowerProduct,
    k: int,
    branch_value: PowerProduct,
    high_side: bool,
    note: str,
) -> LowerBoundCertificate:
    """Assemble the V_k certificate around the dominant index `alpha`.

    The ideal sparsity l satisfies the tight inclusion inequalities
    ν_α l^(x_γ − x_α) ≤ ν_γ; rounding l to the integer k costs at most a
    factor 2 on each vertex norm, recorded explicitly in the vertex rows.
    The scale is chosen so the certified value equals the branch term
    exactly: scale · (V_k width bound) = branch.
    """
    nu = spec.nu
    bound = (
        PowerProduct.from_pow(k, _HALF) * spec.g
        if high_side
        else PowerProduct.from_pow(k, spec.x_q)
    )
    scale = branch_value / bound
    checks = [
        CheckedInequality("l-range[1 <= l]", PowerProduct.one(), l_value),
        CheckedInequality("l-range[l <= N]", l_value, PowerProduct.from_fraction(spec.N)),
        *_dominance(spec, alpha, l_value, "l-dominance"),
    ]
    for gamma in range(len(spec.balls)):
        checks.append(
            CheckedInequality(
                f"vertex[gamma={gamma}]",
                scale * vk_vertex_norm(spec.balls[gamma].p, k),
                nu[gamma] * 2,
            )
        )
    checks.extend(_budget_checks(spec, k, high_side))
    return LowerBoundCertificate(
        kind="Vk-inclusion",
        k=k,
        scale=scale,
        certified_value=branch_value,
        checked=tuple(checks),
        note=note,
    )


def _b1_certificate(spec: IntersectionSpec, alpha: int) -> LowerBoundCertificate:
    nu_a = spec.nu[alpha]
    checks = _dominance(spec, alpha, PowerProduct.one(), "nu-min")
    checks.extend(_budget_checks(spec, 1, high_side=spec.q > 2))
    return LowerBoundCertificate(
        kind="B1-inclusion",
        k=1,
        scale=nu_a,
        certified_value=nu_a if spec.g is None else nu_a * spec.g,
        checked=tuple(checks),
        note="1-sparse vertices of the scaled cross-polytope lie in every ball",
    )


def _binf_certificate(spec: IntersectionSpec, alpha: int) -> LowerBoundCertificate:
    nu_a, x_a = spec.nu[alpha], spec.x[alpha]
    N = spec.N
    scale = nu_a * PowerProduct.from_pow(N, -x_a)
    value = nu_a * PowerProduct.from_pow(N, spec.x_q - x_a)
    checks = _dominance(spec, alpha, PowerProduct.from_fraction(N), "inclusion")
    checks.extend(_budget_checks(spec, N, high_side=False))
    return LowerBoundCertificate(
        kind="Binf-inclusion",
        k=N,
        scale=scale,
        certified_value=value,
        checked=tuple(checks),
        note="the full cube at the exact inclusion scale; no rounding loss",
    )


def _cross_value(nu_a, nu_b, x_a, x_b, level) -> PowerProduct:
    w = (level - x_a) / (x_b - x_a)
    return nu_a ** (1 - w) * nu_b ** w


def _ideal_sparsity(nu_a, nu_b, x_a, x_b) -> PowerProduct:
    """l with ν_a / ν_b = l^(x_a − x_b)."""
    return (nu_a / nu_b) ** (_ONE / (x_a - x_b))


# The term families in the order that breaks ties; family "small-p"
# certifies case "small-dominant", and so on.
_CASE_ORDER = ("small-p", "large-p", "mid-p", "cross-lambda", "cross-mu")


def classify_branch(spec: IntersectionSpec):
    """The case of the least display term, plus its certificate.

    The least term names a ball α or a pair (α, β) of `params.piece_rows`;
    among equal terms the first in the order small → large → mid →
    cross-lambda → cross-mu wins, then the first in row order:

        small-dominant         ν_α (· g for q > 2): B1-inclusion,
        large-dominant         ν_α N^(1/q−x_α): Binf-inclusion,
        mid-dominant           ν_α g^((x_α−x_q)/θ_q): V_k at the budget sparsity,
        cross-lambda-dominant  ν_α^(1−λ) ν_β^λ: V_k at the pair's ideal sparsity,
        cross-mu-dominant      ν_α^(1−μ) ν_β^μ g: the same, on the high side.

    The budget sparsity is (n^(1/2) N^(−1/q))^(1/θ_q), θ_q = 1/2 − 1/q: the
    l with n = N^(2/q) l^(1−2/q).  The ideal sparsity of a pair is the l with
    ν_α / ν_β = l^(x_α − x_β).  The certified value and every inequality are
    derived from the radii again, not copied from the term, so `verify` and
    a comparison with `intersection_order` re-check the choice.
    Returns (case, certificate), or ("unclassified", None) when a ball
    exponent sits on a threshold (p = q, or p = 2 for q > 2).
    """
    x_q, x, nu = spec.x_q, spec.x, spec.nu
    if x_q in x or (spec.q > 2 and _HALF in x):
        return "unclassified", None
    family, idx, _ = _least(sorted(spec.terms, key=lambda term: _CASE_ORDER.index(term[0])))
    case, a = family.removesuffix("-p") + "-dominant", idx[0]
    if family == "small-p":
        return case, _b1_certificate(spec, a)
    if family == "large-p":
        return case, _binf_certificate(spec, a)
    if family == "mid-p":
        # the budget sparsity, g^(−1/θ_q)
        budget = spec.g ** (_ONE / (x_q - _HALF))
        return case, _vk_certificate(
            spec,
            a,
            budget,
            _int_ceil(budget),
            nu[a] * budget ** (x_q - x[a]),
            high_side=False,
            note="sparsity matches the budget: n = N^(2/q) l^(1-2/q)",
        )
    b = idx[1]
    l_value = _ideal_sparsity(nu[a], nu[b], x[a], x[b])
    if family == "cross-lambda":
        return case, _vk_certificate(
            spec,
            a,
            l_value,
            _int_ceil(l_value),
            _cross_value(nu[a], nu[b], x[a], x[b], x_q),
            high_side=False,
            note="sparsity interpolates the two dominant balls at level 1/q",
        )
    return case, _vk_certificate(
        spec,
        a,
        l_value,
        _int_floor(l_value),
        _cross_value(nu[a], nu[b], x[a], x[b], _HALF) * spec.g,
        high_side=True,
        note="sparsity interpolates the two dominant balls at level 1/2",
    )


# ---------------------------------------------------------------------------
# dyadic blocks of a smoothness class


#: Largest block rank m = Σ m_j that `block_profile` accepts.  The block
#: dimension 2^m is then a 128 KiB integer, and from m ≈ 14 300 on every
#: answer already has more digits than the interpreter converts to text.
MAX_BLOCK_RANK = 2**20


def block_profile(spec: ProblemSpec, m_vec: tuple[int, ...]) -> tuple[int, ...]:
    """m̄ as integers, refused unless it has one entry ≥ 0 per coordinate and
    its entries sum to at most `MAX_BLOCK_RANK`."""
    if len(m_vec) != spec.d:
        raise ParameterError(f"block profile has {len(m_vec)} entries, spec has {spec.d}")
    m_vec = tuple(int(v) for v in m_vec)
    if any(v < 0 for v in m_vec):
        raise ParameterError("block profile entries must be ≥ 0")
    if sum(m_vec) > MAX_BLOCK_RANK:
        raise ParameterError(f"block profile entries must sum to at most {MAX_BLOCK_RANK}")
    return m_vec


def dyadic_block_order(spec: ProblemSpec, m_vec: tuple[int, ...], n: int) -> WidthOrder:
    """Width order of one dyadic frequency block of the class (r̄, p̄, q).

    The block with profile m̄ has dimension N = 2^m, m = Σ m_j, and reduces
    to the intersection ∩_j ν_j B_{p_j}^N in ℓ_q^N with exact radii

        ν_j = 2^(−m_j r_j + m/p_j − m/q),

    the exponent's last two terms read as m·(X_j − Q)/D from the spec's
    integer scale.  `block_profile` refuses m̄ before 2^m is built.
    """
    m_vec = block_profile(spec, m_vec)
    m = sum(m_vec)
    balls = []
    for j in range(spec.d):
        e = -m_vec[j] * spec.r[j] + Fraction(m * (spec.X[j] - spec.Q), spec.D)
        balls.append(BallSpec(spec.p[j], PowerProduct.from_pow(2, e)))
    return intersection_order(IntersectionSpec(N=2**m, n=n, q=spec.q, balls=tuple(balls)))


def _block_rate(spec, high, E, point) -> Fraction:
    """max over the rows of Σ w_i r_i t_i + t_coeff·t + logn_coeff·log n at
    (t_1, …, t_d, t, log n) = point/E, for integers `point`."""
    L, rows = spec.rate_rows(high)
    return Fraction(max(sum(map(operator.mul, row, point)) for _, row in rows), L * E)


def phi_value(spec: ProblemSpec, t_vec: tuple[Fraction, ...]) -> Fraction:
    """φ(t̄): the block-decay rate in the low-q shape, any q.

    The maximum over the low-shape rows of `params.piece_rows` of
    Σ w_i r_i t_i + t_coeff·t with t = Σ t_j.  Positively homogeneous:
    φ(c t̄) = c φ(t̄).
    """
    t_vec = tuple(as_fraction(v) for v in t_vec)
    if len(t_vec) != spec.d:
        raise ParameterError("t̄ length mismatch")
    E, a = over_one_denominator(t_vec)
    if min(a) < 0:
        raise ParameterError("t̄ entries must be ≥ 0")
    return _block_rate(spec, False, E, a + [sum(a), 0])


def psi_value(
    spec: ProblemSpec,
    t_vec: tuple[Fraction, ...],
    t: Fraction,
    log_n: Fraction,
) -> Fraction:
    """ψ(t̄, t; log n) for q > 2: the block rate at budget n.

    The maximum over the high-shape rows of `params.piece_rows` of
    Σ w_i r_i t_i + t_coeff·t + logn_coeff·log n.  Scaling identity:
    ψ(t̄, t; L) = L · h̃(t̄/L, t/L) piece by piece, where h̃ is the q > 2
    objective of `exponent.build_objective`, the same `rate_rows` read at
    (ᾱ, s, 1).
    """
    if spec.q <= 2:
        raise ParameterError("ψ is defined for q > 2")
    t_vec = tuple(as_fraction(v) for v in t_vec)
    if len(t_vec) != spec.d:
        raise ParameterError("t̄ length mismatch")
    E, point = over_one_denominator((*t_vec, as_fraction(t), as_fraction(log_n)))
    return _block_rate(spec, True, E, point)
