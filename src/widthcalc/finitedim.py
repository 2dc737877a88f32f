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

The branch of the minimum admits a matching lower bound built from one of
three convex bodies placed inside M0 (up to a factor 2):

    B1-inclusion    scaled ℓ_1 ball (1-sparse vertices),
    Binf-inclusion  scaled ℓ_∞ ball (full cube),
    Vk-inclusion    scaled V_k, the convex hull of all ±1 vectors with
                    exactly k nonzero entries (max ℓ_p vertex norm k^(1/p)).

The certificate records the sparsity k, the scaling, every inequality the
inclusion and the V_k width bound need, and the certified value, which
equals the branch term exactly.  Values are `PowerProduct`s, so all checks
are exact; the factor 2 lost by rounding the ideal sparsity l to an
integer k is folded into the recorded right-hand sides.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from fractions import Fraction

from mpmath.libmp import round_ceiling, round_floor, to_int

from .params import ParameterError, ProblemSpec, RangeError, as_fraction, piece_rows
from .values import INF, PowerProduct, inv_exponent, is_inf

__all__ = [
    "BallSpec",
    "IntersectionSpec",
    "CheckedInequality",
    "LowerBoundCertificate",
    "WidthOrder",
    "DominationCheck",
    "single_ball_order",
    "intersection_order",
    "classify_branch",
    "vk_lower_bound",
    "vk_vertex_norm",
    "dyadic_block_order",
    "phi_value",
    "psi_value",
    "cross_term_dominated",
]

_ZERO = Fraction(0)
_ONE = Fraction(1)
_HALF = Fraction(1, 2)
_TWO = Fraction(2)


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
    """M0 = ∩ ν_α B_{p_α}^N viewed in ℓ_q^N with an approximation budget n."""

    N: int
    n: int
    q: Fraction
    balls: tuple[BallSpec, ...]

    def __init__(self, N, n, q, balls):
        if not isinstance(N, int) or N < 1:
            raise ParameterError(f"N must be a positive integer, got {N!r}")
        if not isinstance(n, int) or n < 0 or n > N:
            raise ParameterError(f"n must be an integer in [0, N], got {n!r}")
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
    certificate: LowerBoundCertificate | None = None


@dataclass(frozen=True)
class DominationCheck:
    i: int
    j: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


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
    if not isinstance(N, int) or N < 1:
        raise ParameterError(f"N must be a positive integer, got {N!r}")
    if not isinstance(n, int) or n < 0 or n > N:
        raise ParameterError(f"n must be an integer in [0, N], got {n!r}")
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


def vk_lower_bound(N: int, n: int, q, k: int) -> PowerProduct:
    """Certified lower bound for d_n(V_k, ℓ_q^N) (up to a q-only constant).

    q ≤ 2, n ≤ N/2:                          k^(1/q)
    q > 2, n ≤ min{N^(2/q) k^(1−2/q), N/2}:  k^(1/q)
    q > 2, N^(2/q) k^(1−2/q) ≤ n ≤ N/2:      k^(1/2) n^(−1/2) N^(1/q)
    """
    if not isinstance(k, int) or not 1 <= k <= N:
        raise ParameterError(f"need 1 ≤ k ≤ N, got k = {k!r}")
    if not isinstance(n, int) or n < 0:
        raise ParameterError(f"n must be a nonnegative integer, got {n!r}")
    q = as_fraction(q)
    if 2 * n > N:
        raise RangeError(f"the V_k bounds need n ≤ N/2, got n = {n}, N = {N}")
    if q <= 2:
        return PowerProduct.from_pow(k, _ONE / q)
    pivot = PowerProduct.from_pow(N, _TWO / q) * PowerProduct.from_pow(k, 1 - _TWO / q)
    n_val = PowerProduct.from_fraction(n) if n else PowerProduct.zero()
    if n_val <= pivot:
        return PowerProduct.from_pow(k, _ONE / q)
    return (
        PowerProduct.from_pow(k, _HALF)
        * PowerProduct.from_pow(n, Fraction(-1, 2))
        * PowerProduct.from_pow(N, _ONE / q)
    )


# ---------------------------------------------------------------------------
# intersections


def _check_display_range(spec: IntersectionSpec) -> None:
    if 2 * spec.n > spec.N:
        raise RangeError(f"need n ≤ N/2, got n = {spec.n}, N = {spec.N}")
    if spec.q > 2:
        # n ≥ N^(2/q)  ⟺  n^q ≥ N², checked exactly without raising n to q's numerator.
        if spec.n <= 0 or PowerProduct.from_pow(spec.n, spec.q) < PowerProduct.from_pow(
            spec.N, _TWO
        ):
            raise RangeError(
                f"q > 2 needs n ≥ N^(2/q), got n = {spec.n}, N = {spec.N}, q = {spec.q}"
            )


def _gaussian_factor(spec: IntersectionSpec) -> PowerProduct:
    """g = n^(−1/2) N^(1/q)."""
    return PowerProduct.from_pow(spec.n, Fraction(-1, 2)) * PowerProduct.from_pow(
        spec.N, _ONE / spec.q
    )


def _terms(spec: IntersectionSpec) -> list[tuple[str, tuple[int, ...], PowerProduct]]:
    """The display terms in deterministic order: (family, indices, value)."""
    nu = [b.nu for b in spec.balls]
    high = spec.q > 2
    g = _gaussian_factor(spec) if high else None
    out = []
    for family, idx, weights, _, logn_coeff, n_power in piece_rows(
        [inv_exponent(b.p) for b in spec.balls], _ONE / spec.q, high
    ):
        factors = [nu[i] ** w for i, w in zip(idx, weights)]
        if n_power:
            factors.append(PowerProduct.from_pow(spec.N, n_power))
        if logn_coeff:
            factors.append(g ** (2 * logn_coeff))
        out.append((family, idx, functools.reduce(operator.mul, factors)))
    return out


def intersection_order(spec: IntersectionSpec) -> WidthOrder:
    """min over the display terms; branch = family of the first minimum."""
    _check_display_range(spec)
    terms = _terms(spec)
    best_family, _, best_value = terms[0]
    for family, _, value in terms[1:]:
        if value < best_value:
            best_family, best_value = family, value
    return WidthOrder(best_value, best_family)


# ---------------------------------------------------------------------------
# branch classification with certificates


def _floor_ceil(x: PowerProduct) -> tuple[int, int]:
    """⌊·⌋ and ⌈·⌉ of x to about 96 bits past the binary point, however
    large x is, so the exact correction steps below take one or two turns."""
    _, _, exp, bc = x.to_libmp(32)  # exp + bc is about log2 x
    approx = x.to_libmp(96 + max(0, exp + bc))
    return to_int(approx, round_floor), to_int(approx, round_ceiling)


def _int_ceil(x: PowerProduct) -> int:
    k = _floor_ceil(x)[1]
    while PowerProduct.from_fraction(max(k, 1)) < x:
        k += 1
    while k >= 1 and x <= PowerProduct.from_fraction(k - 1):
        k -= 1
    return max(k, 1)


def _int_floor(x: PowerProduct) -> int:
    k = _floor_ceil(x)[0]
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
            PowerProduct.from_fraction(2 * spec.n) if spec.n else PowerProduct.zero(),
            PowerProduct.from_fraction(spec.N),
        )
    ]
    if spec.q > 2:
        pivot = PowerProduct.from_pow(spec.N, _TWO / spec.q) * PowerProduct.from_pow(
            k, 1 - _TWO / spec.q
        )
        n_val = PowerProduct.from_fraction(spec.n) if spec.n else PowerProduct.zero()
        if high_side:
            checks.append(CheckedInequality("range[n >= N^(2/q) k^(1-2/q)]", pivot, n_val))
        else:
            checks.append(CheckedInequality("range[n <= N^(2/q) k^(1-2/q)]", n_val, pivot))
    return checks


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
    x = [inv_exponent(b.p) for b in spec.balls]
    nu = [b.nu for b in spec.balls]
    bound = (
        PowerProduct.from_pow(k, _HALF) * _gaussian_factor(spec)
        if high_side
        else PowerProduct.from_pow(k, _ONE / spec.q)
    )
    scale = branch_value / bound
    checks = [
        CheckedInequality("l-range[1 <= l]", PowerProduct.one(), l_value),
        CheckedInequality("l-range[l <= N]", l_value, PowerProduct.from_fraction(spec.N)),
    ]
    for gamma in range(len(spec.balls)):
        checks.append(
            CheckedInequality(
                f"l-dominance[gamma={gamma}]",
                nu[alpha] * l_value ** (x[gamma] - x[alpha]),
                nu[gamma],
            )
        )
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
    nu = [b.nu for b in spec.balls]
    value = nu[alpha] if spec.q <= 2 else nu[alpha] * _gaussian_factor(spec)
    checks = [
        CheckedInequality(f"nu-min[gamma={g}]", nu[alpha], nu[g])
        for g in range(len(spec.balls))
    ]
    checks.extend(_budget_checks(spec, 1, high_side=spec.q > 2))
    return LowerBoundCertificate(
        kind="B1-inclusion",
        k=1,
        scale=nu[alpha],
        certified_value=value,
        checked=tuple(checks),
        note="1-sparse vertices of the scaled cross-polytope lie in every ball",
    )


def _binf_certificate(spec: IntersectionSpec, alpha: int) -> LowerBoundCertificate:
    x = [inv_exponent(b.p) for b in spec.balls]
    nu = [b.nu for b in spec.balls]
    N = spec.N
    scale = nu[alpha] * PowerProduct.from_pow(N, -x[alpha])
    value = nu[alpha] * PowerProduct.from_pow(N, _ONE / spec.q - x[alpha])
    checks = [
        CheckedInequality(
            f"inclusion[gamma={g}]",
            nu[alpha] * PowerProduct.from_pow(N, x[g] - x[alpha]),
            nu[g],
        )
        for g in range(len(spec.balls))
    ]
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


def _dominant_pair(nu, x, rows, cols, level, l_min, l_max):
    """(a, l, c_ab) for the first pair (a, b) over `rows` × `cols` whose
    interpolated radius c_ab at `level` is least along its row and its
    column, and whose ideal sparsity l lies in [l_min, l_max], that is
    ν_b l_max^(x_a−x_b) ≤ ν_a ≤ ν_b l_min^(x_a−x_b); None if there is none.
    """
    for a in rows:
        for b in cols:
            cab = _cross_value(nu[a], nu[b], x[a], x[b], level)
            if (
                all(cab <= _cross_value(nu[a], nu[g], x[a], x[g], level) for g in cols)
                and all(cab <= _cross_value(nu[g], nu[b], x[g], x[b], level) for g in rows)
                and nu[b] * l_max ** (x[a] - x[b]) <= nu[a] <= nu[b] * l_min ** (x[a] - x[b])
            ):
                return a, _ideal_sparsity(nu[a], nu[b], x[a], x[b]), cab
    return None


def classify_branch(spec: IntersectionSpec):
    """Which dominance pattern the radii form, plus its certificate.

    With large = {x_α < x_q}, mid = {x_q < x_α < 1/2} (empty for q ≤ 2) and
    small = {x_α > max(x_q, 1/2)}, the cases are tested in this fixed order
    and the first match wins:

        small-dominant         a small ν_α is the least radius,
        large-dominant         a large ν_α N^(x_γ−x_α) is below every ν_γ,
        mid-dominant           a mid ν_α at the budget sparsity,
        cross-lambda-dominant  a (large, mid + small) pair at level 1/q,
        cross-mu-dominant      a (large + mid, small) pair at level 1/2 (q > 2).

    The budget sparsity is (n^(1/2) N^(−1/q))^(1/θ_q), θ_q = 1/2 − 1/q: the
    l with n = N^(2/q) l^(1−2/q).  A cross-lambda pair needs its ideal
    sparsity in [budget, N] for q > 2 and in [1, N] for q ≤ 2; a cross-mu
    pair needs it in [1, budget].  Returns (case, certificate), or
    ("unclassified", None) when a ball exponent sits on a threshold (p = q,
    or p = 2 for q > 2) or no pattern holds.
    """
    _check_display_range(spec)
    high = spec.q > 2
    x_q = _ONE / spec.q
    x = [inv_exponent(b.p) for b in spec.balls]
    if x_q in x or (high and _HALF in x):
        return "unclassified", None
    nu = [b.nu for b in spec.balls]
    idx = range(len(spec.balls))
    large = [a for a in idx if x[a] < x_q]
    mid = [a for a in idx if x_q < x[a] < _HALF]
    small = [a for a in idx if x[a] > max(x_q, _HALF)]
    for a in small:
        if all(nu[a] <= nu[g] for g in idx):
            return "small-dominant", _b1_certificate(spec, a)
    for a in large:
        if all(nu[a] * PowerProduct.from_pow(spec.N, x[g] - x[a]) <= nu[g] for g in idx):
            return "large-dominant", _binf_certificate(spec, a)
    one = PowerProduct.one()
    # g^(−1/θ_q); for q ≤ 2 no budget bounds the sparsity from below.
    budget = _gaussian_factor(spec) ** (_ONE / (x_q - _HALF)) if high else one
    for a in mid:
        if all(nu[a] * budget ** (x[g] - x[a]) <= nu[g] for g in idx):
            return "mid-dominant", _vk_certificate(
                spec,
                a,
                budget,
                _int_ceil(budget),
                nu[a] * budget ** (x_q - x[a]),
                high_side=False,
                note="sparsity matches the budget: n = N^(2/q) l^(1-2/q)",
            )
    full = PowerProduct.from_fraction(spec.N)  # l = N: the whole cube
    pair = _dominant_pair(nu, x, large, mid + small, x_q, budget, full)
    if pair:
        a, l_value, cab = pair
        return "cross-lambda-dominant", _vk_certificate(
            spec,
            a,
            l_value,
            _int_ceil(l_value),
            cab,
            high_side=False,
            note="sparsity interpolates the two dominant balls at level 1/q",
        )
    pair = _dominant_pair(nu, x, large + mid, small, _HALF, one, budget) if high else None
    if pair:
        a, l_value, cab = pair
        return "cross-mu-dominant", _vk_certificate(
            spec,
            a,
            l_value,
            _int_floor(l_value),
            cab * _gaussian_factor(spec),
            high_side=True,
            note="sparsity interpolates the two dominant balls at level 1/2",
        )
    return "unclassified", None


# ---------------------------------------------------------------------------
# dyadic blocks of a smoothness class


def dyadic_block_order(spec: ProblemSpec, m_vec: tuple[int, ...], n: int) -> WidthOrder:
    """Width order of one dyadic frequency block of the class (r̄, p̄, q).

    The block with profile m̄ has dimension N = 2^m, m = Σ m_j, and reduces
    to the intersection ∩_j ν_j B_{p_j}^N in ℓ_q^N with exact radii

        ν_j = 2^(−m_j r_j + m/p_j − m/q).
    """
    if len(m_vec) != spec.d:
        raise ParameterError(f"block profile has {len(m_vec)} entries, spec has {spec.d}")
    m_vec = tuple(int(v) for v in m_vec)
    if any(v < 0 for v in m_vec):
        raise ParameterError("block profile entries must be ≥ 0")
    m = sum(m_vec)
    balls = []
    for j in range(spec.d):
        e = -m_vec[j] * spec.r[j] + m * spec.x[j] - m * spec.x_q
        balls.append(BallSpec(spec.p[j], PowerProduct.from_pow(2, e)))
    return intersection_order(IntersectionSpec(N=2**m, n=n, q=spec.q, balls=tuple(balls)))


def _block_rate(spec, t_vec, t, log_n, high) -> Fraction:
    """max over the rows of Σ w_i r_i t_i + t_coeff·t + logn_coeff·log n."""
    rt = [ri * ti for ri, ti in zip(spec.r, t_vec)]  # r_i t_i, shared by every row
    rates = []
    for _, idx, weights, t_coeff, logn_coeff, _ in spec.rows(high):
        rate = sum(rt[i] if w == 1 else w * rt[i] for i, w in zip(idx, weights))
        if t_coeff:
            rate += t_coeff * t
        if logn_coeff:
            rate += logn_coeff * log_n
        rates.append(rate)
    return max(rates)


def phi_value(spec: ProblemSpec, t_vec: tuple[Fraction, ...]) -> Fraction:
    """φ(t̄): the block-decay rate in the low-q shape, any q.

    The maximum over the low-shape rows of `params.piece_rows` of
    Σ w_i r_i t_i + t_coeff·t with t = Σ t_j.  Positively homogeneous:
    φ(c t̄) = c φ(t̄).
    """
    t_vec = tuple(as_fraction(v) for v in t_vec)
    if len(t_vec) != spec.d:
        raise ParameterError("t̄ length mismatch")
    if any(v < 0 for v in t_vec):
        raise ParameterError("t̄ entries must be ≥ 0")
    return _block_rate(spec, t_vec, sum(t_vec), _ZERO, high=False)


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
    objective of `exponent.build_objective`.
    """
    if spec.q <= 2:
        raise ParameterError("ψ is defined for q > 2")
    t_vec = tuple(as_fraction(v) for v in t_vec)
    t = as_fraction(t)
    log_n = as_fraction(log_n)
    if len(t_vec) != spec.d:
        raise ParameterError("t̄ length mismatch")
    return _block_rate(spec, t_vec, t, log_n, high=True)


def cross_term_dominated(
    spec: ProblemSpec, m_vec: tuple[Fraction, ...]
) -> tuple[DominationCheck, ...]:
    """The cross-mu pieces never matter for block rates: exact inequalities.

    For q > 2 and every pair p_i > 2 > p_j, the cross-mu piece shifted to
    the block normalisation is dominated by pieces already present:

      p_i > q:     (1−μ)r_i m_i + μ r_j m_j + m/q − m/2
                       ≤ max{(1−λ)r_i m_i + λ r_j m_j,  r_j m_j + m/q − m x_j}
      2 < p_i ≤ q: same left side
                       ≤ max{r_i m_i + m/q − m x_i,  r_j m_j + m/q − m x_j}

    with m = Σ m_j.  Returns one check per applicable (i, j) pair.
    """
    if spec.q <= 2:
        raise ParameterError("the domination inequalities concern q > 2")
    m_vec = tuple(as_fraction(v) for v in m_vec)
    if len(m_vec) != spec.d:
        raise ParameterError("m̄ length mismatch")
    if any(v < 0 for v in m_vec):
        raise ParameterError("m̄ entries must be ≥ 0")
    m = sum(m_vec)
    x_q, x, r = spec.x_q, spec.x, spec.r
    checks = []
    for i in range(spec.d):
        if x[i] >= _HALF:
            continue  # needs p_i > 2
        for j in range(spec.d):
            if x[j] <= _HALF:
                continue  # needs p_j < 2
            mu = (_HALF - x[i]) / (x[j] - x[i])
            lhs = (1 - mu) * r[i] * m_vec[i] + mu * r[j] * m_vec[j] + m * x_q - m * _HALF
            small_piece = r[j] * m_vec[j] + m * x_q - m * x[j]
            if x[i] < x_q:  # p_i > q
                lam = (x_q - x[i]) / (x[j] - x[i])
                rhs = max((1 - lam) * r[i] * m_vec[i] + lam * r[j] * m_vec[j], small_piece)
            else:  # 2 < p_i ≤ q
                rhs = max(r[i] * m_vec[i] + m * x_q - m * x[i], small_piece)
            checks.append(DominationCheck(i, j, lhs, rhs))
    return tuple(checks)
