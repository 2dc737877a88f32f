"""Independent recomputation oracles for the decay-exponent machinery.

The closed forms in `closedform` and the LP route in `exponent` share no
code with this module beyond the parameter types.  Everything here is
rebuilt from the defining formulas so that a bug in either route shows up
as a disagreement:

  * `grid_minimize` brackets the true minimum of the piecewise objective
    by the exact minimum over a rational lattice.  The objective is a max
    of affine pieces, hence Lipschitz; rounding any feasible point onto
    the lattice moves each coordinate by at most 1/G, so

        best − gap ≤ min ≤ best,   gap = (Σ_j max|coeff_j| + max|s coeff|)/G.

    The lattice minimum comes from a branch and bound in integer
    arithmetic, with no floats and no list of lattice points.
  * `check_scaling_identities` verifies, with zero tolerance, the two
    structural identities that tie the asymptotic objective to the
    finite-block rates: the s-face identity (the q > 2 objective on the
    face s = q/2 equals q/2 times the low-q-shaped objective) and the
    log-rescaling identity ψ(t̄, t; L) = L · h̃(t̄/L, t/L), plus positive
    homogeneity of the block rate φ.
  * `cross_validate` samples problem specs stratified over all nine
    closed-form branches and compares the closed form against the LP
    minimum, optionally against a grid bracket, and runs identity spot
    checks.  Reports are deterministic functions of (seed, samples): the
    generator is a fixed 64-bit linear congruential recurrence and the
    output contains no timestamps or environment details.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import os
from dataclasses import dataclass
from fractions import Fraction

from . import closedform
from .exponent import build_objective, minimize
from .finitedim import BallSpec, IntersectionSpec, phi_value, psi_value
from .params import ParameterError, ProblemSpec, RangeError, as_fraction
from .values import INF, decimal_str

__all__ = [
    "Lcg",
    "BRANCH_LABELS",
    "SCREEN_LABEL",
    "GRID_ENV",
    "sample_branch",
    "sample_intersection",
    "h_low_style_value",
    "h_high_value",
    "check_certificate",
    "GridBracket",
    "default_grid",
    "grid_minimize",
    "IdentityReport",
    "check_scaling_identities",
    "ValidationRecord",
    "ValidationReport",
    "cross_validate",
]

GRID_ENV = "WIDTHCALC_GRID"
# Work allowed to one lattice bracket, in cells bounded × pieces per bound:
# a cell's cost grows with the piece count (82 pieces at d = 16, q > 2), so
# counting cells alone would let one input run far longer than another.
_BUDGET = 1 << 17

BRANCH_LABELS = (
    "T1.1",
    "T1.2a",
    "T1.2b",
    "T1.3a",
    "T1.3b",
    "T1.3c",
    "T4.1",
    "T4.2a",
    "T4.2b",
)
SCREEN_LABEL = "T3-noncompact"

_ONE = Fraction(1)
_HALF = Fraction(1, 2)


class Lcg:
    """Deterministic 64-bit linear congruential generator.

    Multiplier and increment are Knuth's MMIX constants modulo 2^64.  The
    top 63 bits feed rejection sampling, so draws are unbiased and the
    stream depends on nothing but the seed.
    """

    _A = 6364136223846793005
    _C = 1442695040888963407
    _MASK = (1 << 64) - 1

    def __init__(self, seed: int):
        self._state = seed & self._MASK
        self._step()

    def _step(self) -> int:
        self._state = (self._state * self._A + self._C) & self._MASK
        return self._state

    def rand_below(self, n: int) -> int:
        if n <= 0:
            raise ParameterError(f"rand_below needs n ≥ 1, got {n}")
        span = ((1 << 63) // n) * n
        while True:
            v = self._step() >> 1
            if v < span:
                return v % n

    def coin(self) -> bool:
        return bool(self._step() >> 63)

    def fraction_between(self, lo, hi, max_den: int = 12) -> Fraction:
        """A rational strictly inside (lo, hi) with denominator ≤ max_den."""
        lo, hi = as_fraction(lo), as_fraction(hi)
        if not lo < hi:
            raise ParameterError(f"empty interval ({lo}, {hi})")
        # Integer floor and ceiling of lo·den and hi·den (denominators > 0).
        ln, ld, hn, hd = lo.numerator, lo.denominator, hi.numerator, hi.denominator
        feasible = []
        for den in range(1, max_den + 1):
            nmin = ln * den // ld + 1
            nmax = -(-hn * den // hd) - 1
            if nmin <= nmax:
                feasible.append((den, nmin, nmax))
        if not feasible:
            raise ParameterError(
                f"no rational with denominator ≤ {max_den} in ({lo}, {hi})"
            )
        den, nmin, nmax = feasible[self.rand_below(len(feasible))]
        return Fraction(nmin + self.rand_below(nmax - nmin + 1), den)


# ---------------------------------------------------------------------------
# stratified samplers, one proposal shape per closed-form branch


def _low_q(rng: Lcg) -> Fraction:
    return Fraction(2) if rng.rand_below(4) == 0 else rng.fraction_between(1, 2)


def _propose(rng: Lcg, label: str) -> ProblemSpec:
    F = Fraction
    if label == "T1.1":
        q = rng.fraction_between(1, 8)
        p = tuple(q + rng.fraction_between(0, 6) for _ in range(2))
        r = tuple(rng.fraction_between(F(1, 4), 4) for _ in range(2))
    elif label == "T1.2a":
        q = _low_q(rng)
        p = tuple(rng.fraction_between(1, q) for _ in range(2))
        r = tuple(rng.fraction_between(F(1, 2), 5) for _ in range(2))
    elif label == "T1.2b":
        q = _low_q(rng)
        p = (q + rng.fraction_between(0, 5), rng.fraction_between(1, q))
        r = tuple(rng.fraction_between(F(1, 2), 5) for _ in range(2))
    elif label == "T1.3a":
        q = rng.fraction_between(2, 8)
        p = tuple(rng.fraction_between(1, 2) for _ in range(2))
        r = tuple(rng.fraction_between(1, 6) for _ in range(2))
    elif label == "T1.3b":
        q = rng.fraction_between(2, 8)
        p = (rng.fraction_between(2, q), rng.fraction_between(2, q + 4))
        r = tuple(rng.fraction_between(F(1, 2), 5) for _ in range(2))
    elif label == "T1.3c":
        q = rng.fraction_between(2, 8)
        p = (rng.fraction_between(2, q + 4), rng.fraction_between(1, 2))
        r = tuple(rng.fraction_between(1, 6) for _ in range(2))
    elif label == SCREEN_LABEL:
        q = rng.fraction_between(1, 6)
        p = tuple(rng.fraction_between(1, q) for _ in range(2))
        r = tuple(rng.fraction_between(F(1, 8), 1) for _ in range(2))
    elif label in ("T4.1", "T4.2a", "T4.2b"):
        if label == "T4.1":
            q = _low_q(rng)
            p_lo = rng.fraction_between(1, q)
        elif label == "T4.2a":
            q = rng.fraction_between(2, 8)
            p_lo = rng.fraction_between(2, q)
        else:
            q = rng.fraction_between(2, 8)
            p_lo = rng.fraction_between(1, 2)
        p_hi = q + rng.fraction_between(F(1, 4), 6)
        gap = _ONE / p_lo - _ONE / p_hi
        r_lo = gap * rng.fraction_between(F(1, 2), 1)
        r_hi = rng.fraction_between(F(1, 2), 4)
        p, r = (p_lo, p_hi), (r_lo, r_hi)
    else:
        raise ParameterError(f"unknown branch label {label!r}")
    if rng.coin():
        p, r = p[::-1], r[::-1]
    return ProblemSpec(r=r, p=p, q=q)


def sample_branch(rng: Lcg, label: str, max_tries: int = 50_000) -> ProblemSpec:
    """Rejection-sample a spec whose classified case equals `label`."""
    if label not in BRANCH_LABELS and label != SCREEN_LABEL:
        raise ParameterError(f"unknown branch label {label!r}")
    for _ in range(max_tries):
        try:
            spec = _propose(rng, label)
        except (ParameterError, ZeroDivisionError):
            continue
        if closedform.classify_regime(spec).case == label:
            return spec
    raise RuntimeError(f"failed to sample a {label} instance in {max_tries} tries")


def sample_intersection(rng: Lcg, max_balls: int = 3) -> IntersectionSpec:
    """A random valid ball intersection with an admissible budget n.

    N is a power of two in [8, 1024], q ∈ (1, 8], radii in [1/64, 64], ball
    exponents rational in (1, 10) or inf.  The budget is drawn uniformly
    from the admissible window, resampling q when the q > 2 window
    N^(2/q) ≤ n ≤ N/2 is empty.
    """
    for _ in range(10_000):
        q = rng.fraction_between(1, 8, max_den=8)
        N = 2 ** (3 + rng.rand_below(8))
        if q <= 2:
            n_lo = 0
        else:
            a, b = q.numerator, q.denominator
            n_lo = max(1, int(N ** (2 * b / a)) - 2)
            while n_lo**a < N ** (2 * b):
                n_lo += 1
        n_hi = N // 2
        if n_lo > n_hi:
            continue
        n = n_lo + rng.rand_below(n_hi - n_lo + 1)
        count = 2 + rng.rand_below(max_balls - 1)
        balls = []
        for _ in range(count):
            p = INF if rng.rand_below(6) == 0 else rng.fraction_between(1, 10, max_den=8)
            nu = rng.fraction_between(Fraction(1, 64), 64, max_den=16)
            balls.append(BallSpec(p, nu))
        return IntersectionSpec(N=N, n=n, q=q, balls=tuple(balls))
    raise RuntimeError("could not sample an admissible intersection")


# ---------------------------------------------------------------------------
# independent objective evaluation


def _low_style_pieces(spec: ProblemSpec):
    """The low-q shape of the objective, regardless of the actual q.

    Each piece is (tag, coefficient map, s slope, constant), the tag being
    (family, 0-based indices) as in `exponent.Provenance`.
    """
    x_q = _ONE / spec.q
    x = [_ONE / pj for pj in spec.p]
    pieces = []
    for j in range(spec.d):
        if x[j] <= x_q:
            pieces.append((("large-p", (j,)), {j: spec.r[j]}, Fraction(0), Fraction(0)))
        if x[j] >= x_q:
            pieces.append((("small-p", (j,)), {j: spec.r[j]}, Fraction(0), x_q - x[j]))
    return pieces + _cross_pieces(spec, x, "cross-lambda", x_q, Fraction(0), Fraction(0))


def _high_pieces(spec: ProblemSpec):
    """The q > 2 objective in (ᾱ, s): tag, coefficient map, s slope, constant."""
    x_q = _ONE / spec.q
    theta_q = _HALF - x_q
    x = [_ONE / pj for pj in spec.p]
    pieces = []
    for j in range(spec.d):
        if x[j] <= x_q:
            pieces.append((("large-p", (j,)), {j: spec.r[j]}, Fraction(0), Fraction(0)))
        if x_q <= x[j] <= _HALF:
            cj = (x[j] - x_q) / theta_q
            pieces.append((("mid-p", (j,)), {j: spec.r[j]}, -cj / 2, cj / 2))
        if x[j] >= _HALF:
            pieces.append((("small-p", (j,)), {j: spec.r[j]}, -x[j], _HALF))
    return (
        pieces
        + _cross_pieces(spec, x, "cross-lambda", x_q, Fraction(0), Fraction(0))
        + _cross_pieces(spec, x, "cross-mu", _HALF, -_HALF, _HALF)
    )


def _cross_pieces(spec: ProblemSpec, x, family, level, s_coeff, const):
    """One piece per pair x_i < level < x_j, weighted (1 − w, w) so that
    (1 − w)·x_i + w·x_j = level."""
    pieces = []
    for i in range(spec.d):
        for j in range(spec.d):
            if x[i] < level < x[j]:
                w = (level - x[i]) / (x[j] - x[i])
                coeffs = {i: (1 - w) * spec.r[i], j: w * spec.r[j]}
                pieces.append(((family, (i, j)), coeffs, s_coeff, const))
    return pieces


def _piece_value(piece, alpha, s) -> Fraction:
    _, coeffs, s_coeff, const = piece
    v = const + (s_coeff * s if s is not None else 0)
    for j, c in coeffs.items():
        v += c * alpha[j]
    return v


def h_low_style_value(spec: ProblemSpec, alpha) -> Fraction:
    """Low-q-shaped objective at ᾱ (exact; no simplex constraint checked)."""
    alpha = tuple(as_fraction(a) for a in alpha)
    return max(_piece_value(pc, alpha, None) for pc in _low_style_pieces(spec))


def h_high_value(spec: ProblemSpec, alpha, s) -> Fraction:
    """q > 2 objective at (ᾱ, s) (exact; algebraic, domain not enforced)."""
    if spec.q <= 2:
        raise ParameterError("the (ᾱ, s) objective is defined for q > 2")
    alpha = tuple(as_fraction(a) for a in alpha)
    s = as_fraction(s)
    return max(_piece_value(pc, alpha, s) for pc in _high_pieces(spec))


# ---------------------------------------------------------------------------
# LP-duality certificate


def check_certificate(spec: ProblemSpec, result) -> list[str]:
    """The failed checks of a `minimize` result for `spec`; [] when all hold.

    An LP-duality certificate (McConnell, Mehlhorn, Näher & Schweitzer,
    "Certifying algorithms", Computer Science Review 5, 2011), checked on
    this module's own pieces: the weights λ (`result.weights`) are positive
    with sum 1 and name pieces of the objective; Σ λ_k·piece_k, affine and
    below the objective, has least value θ over the domain's vertices; the
    argmin is in the domain and the objective there is θ; and the active
    pieces are the pieces worth θ there.  `unique` is not checked.
    """
    high = spec.q > 2
    pieces = {pc[0]: pc for pc in (_high_pieces(spec) if high else _low_style_pieces(spec))}
    theta, weights, alpha, s = result.theta, result.weights, result.argmin_alpha, result.argmin_s
    failures = []
    if any(w <= 0 for _, w in weights) or sum(w for _, w in weights) != 1:
        failures.append(f"weights are not positive with sum 1: {weights}")
    if any(tag not in pieces for tag, _ in weights):
        failures.append(f"a weighted piece is not a piece of the objective: {weights}")
    else:
        # The low-shape pieces have no s term, so s = 1 evaluates them too.
        vertices = [
            ([c if i == j else 0 for i in range(spec.d)], c)
            for c in ((_ONE, spec.q / 2) if high else (_ONE,))
            for j in range(spec.d)
        ]
        bound = min(sum(w * _piece_value(pieces[tag], *v) for tag, w in weights) for v in vertices)
        if bound != theta:
            failures.append(f"dual bound {bound} != theta {theta}")
    if (
        len(alpha) != spec.d
        or (s is None) == high
        or min(alpha) < 0
        or sum(alpha) != (s if high else 1)
        or high and not _ONE <= s <= spec.q / 2
    ):
        return failures + [f"argmin {alpha}, s={s} is outside the domain"]
    values = {tag: _piece_value(pc, alpha, s) for tag, pc in pieces.items()}
    if max(values.values()) != theta:
        failures.append(f"objective {max(values.values())} at the argmin != theta {theta}")
    active = {tag for tag, v in values.items() if v == theta}
    if len(result.active_pieces) != len(active) or set(result.active_pieces) != active:
        failures.append(f"active pieces {result.active_pieces} != {sorted(active)}")
    return failures


# ---------------------------------------------------------------------------
# exact lattice bracket


@dataclass(frozen=True)
class GridBracket:
    """Two-sided bracket: best − gap ≤ true minimum ≤ best, exactly."""

    grid: int
    best_value: Fraction
    gap: Fraction
    argmin: tuple[Fraction, ...]
    argmin_s: Fraction | None
    points: int

    @property
    def lower(self) -> Fraction:
        return self.best_value - self.gap

    def contains(self, value) -> bool:
        value = as_fraction(value)
        return self.lower <= value <= self.best_value


def default_grid(d: int) -> int:
    env = os.environ.get(GRID_ENV)
    if env is not None:
        try:
            g = int(env)
        except ValueError:
            raise ParameterError(f"{GRID_ENV} must be an integer, got {env!r}") from None
        if g < 1:
            raise ParameterError(f"{GRID_ENV} must be ≥ 1, got {g}")
        return g
    return 64 * d


def _fill(row, lo, hi, need, room):
    """Least value of one integer row over a box cell and its minimiser.

    The row's minimum over lo ≤ ā ≤ hi with `need` ≤ Σ(ā − lo) ≤ `room`
    is a continuous knapsack with unit weights, so filling the cheapest
    coordinates first is exact in integers: negative weights as far as
    `room` allows, the rest only as far as `need` forces.
    """
    c, w, order = row
    value = c + sum(map(operator.mul, w, lo))
    point = list(lo)
    for j in order:
        wj = w[j]
        if room <= 0 or (wj >= 0 and need <= 0):
            break
        take = min(hi[j] - lo[j], room if wj < 0 else need)
        value += wj * take
        point[j] += take
        need -= take
        room -= take
    return value, tuple(point)


def grid_minimize(spec: ProblemSpec, grid: int | None = None) -> GridBracket:
    """Exact bracket of the objective minimum from a denominator-G lattice.

    q ≤ 2: points ᾱ = ā/G with ā ∈ Z≥0^d, Σā = G.  q > 2: additionally
    s = Σā/G with G ≤ Σā ≤ ⌊qG/2⌋.  `best_value` is the exact lattice
    minimum and `argmin` its lexicographically least minimiser, found by
    box branch and bound over ā in integers (Land & Doig 1960): a cell's
    lower bound is the largest piece minimum over the cell, the widest
    coordinate is split, and a cell is dropped once its (bound, lo corner)
    is not below the incumbent (value, argmin).  `points` is the lattice
    size; the work is budgeted in cells × pieces, and a lattice that needs
    more raises `RangeError`.
    """
    d = spec.d
    G = default_grid(d) if grid is None else int(grid)
    if G < 1:
        raise ParameterError(f"grid must be ≥ 1, got {G}")
    q = spec.q
    pieces = _low_style_pieces(spec) if q <= 2 else _high_pieces(spec)
    has_s = q > 2
    if has_s:
        K = (G * q.numerator) // (2 * q.denominator)
        # Σ_{G ≤ k ≤ K} C(k+d−1, d−1), by the hockey-stick identity.
        points = math.comb(K + d, d) - math.comb(G + d - 1, d)
    else:
        K = G
        points = math.comb(G + d - 1, d - 1)
    # With s = Σā/G each piece is affine in ā: G·value = G·const +
    # Σ_j (coeff_j + s coeff)·ā_j.  One common denominator L makes every
    # row integer, so G·L·value is compared exactly as an int.
    weights = [[cmap.get(j, 0) + sc for j in range(d)] for _, cmap, sc, _ in pieces]
    L = math.lcm(
        *(v.denominator for w in weights for v in w), *(c0.denominator for *_, c0 in pieces)
    )
    rows = []
    for w, (*_, c0) in zip(weights, pieces):
        w = [int(v * L) for v in w]
        rows.append((int(c0 * L) * G, w, sorted(range(d), key=w.__getitem__)))
    heap: list = []
    best = None
    cells = 0

    def visit(lo, hi):
        nonlocal best, cells
        s_lo = sum(lo)
        if s_lo > K or sum(hi) < G:
            return
        cells += 1
        if cells * len(rows) > _BUDGET:
            raise RangeError(
                f"lattice bracket needs more than {_BUDGET} piece bounds (cells × pieces); "
                f"lower the grid (argument or {GRID_ENV})"
            )
        bound, point = max(_fill(row, lo, hi, G - s_lo, K - s_lo) for row in rows)
        value = max(c + sum(map(operator.mul, w, point)) for c, w, _ in rows)
        if best is None or (value, point) < best:
            best = (value, point)
        if lo != hi and (bound, lo) < best:
            heapq.heappush(heap, (bound, lo, hi))

    visit((0,) * d, (K,) * d)
    # Cells leave the heap in (bound, lo) order, so once one cannot beat
    # the incumbent none of the rest can.
    while heap and heap[0][:2] < best:
        _, lo, hi = heapq.heappop(heap)
        j = max(range(d), key=lambda i: hi[i] - lo[i])
        mid = (lo[j] + hi[j]) // 2
        visit(lo, hi[:j] + (mid,) + hi[j + 1 :])
        visit(lo[:j] + (mid + 1,) + lo[j + 1 :], hi)
    value, point = best
    lip = sum(
        max(abs(cmap.get(j, Fraction(0))) for _, cmap, _, _ in pieces) for j in range(d)
    )
    if has_s:
        lip += max(abs(sc) for _, _, sc, _ in pieces)
    return GridBracket(
        grid=G,
        best_value=Fraction(value, G * L),
        gap=Fraction(lip, G),
        argmin=tuple(Fraction(a, G) for a in point),
        argmin_s=Fraction(sum(point), G) if has_s else None,
        points=points,
    )


# ---------------------------------------------------------------------------
# structural identities


@dataclass(frozen=True)
class IdentityReport:
    checked: int
    failures: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.failures


def check_scaling_identities(spec: ProblemSpec, points: int = 100, seed: int = 0) -> IdentityReport:
    """Exact spot checks of the identities linking block rates to exponents.

    Per sampled point, for q > 2:
      s-face:        h̃(ᾱ, q/2) = (q/2) · h_low(2ᾱ/q) at Σᾱ = q/2,
      log-rescaling: ψ(t̄, t; L) = L · h̃(t̄/L, t/L),
      homogeneity:   φ(c t̄) = c · φ(t̄).
    For q ≤ 2 only the homogeneity and the normalisation φ(t̄) = t·h(t̄/t)
    apply.  All comparisons are exact; any nonzero residual is a failure.
    """
    rng = Lcg(seed)
    failures: list[str] = []
    checked = 0
    d = spec.d
    low = _low_style_pieces(spec)
    high = _high_pieces(spec) if spec.q > 2 else None
    half_q = spec.q / 2
    for _ in range(points):
        t_vec = tuple(rng.fraction_between(0, 4) for _ in range(d))
        t = sum(t_vec)
        c = rng.fraction_between(0, 8)
        phi = phi_value(spec, t_vec)
        checked += 1
        if phi_value(spec, tuple(c * v for v in t_vec)) != c * phi:
            failures.append(f"homogeneity at t={t_vec} c={c}")
        checked += 1
        unit = tuple(v / t for v in t_vec)
        if phi != t * max(_piece_value(pc, unit, None) for pc in low):
            failures.append(f"phi normalisation at t={t_vec}")
        if high is not None:
            u = tuple(rng.fraction_between(0, 4) for _ in range(d))
            scale = half_q / sum(u)
            alpha = tuple(scale * v for v in u)  # Σ = q/2 exactly
            lhs = max(_piece_value(pc, alpha, half_q) for pc in high)
            shrunk = tuple(a / half_q for a in alpha)
            rhs = half_q * max(_piece_value(pc, shrunk, None) for pc in low)
            checked += 1
            if lhs != rhs:
                failures.append(f"s-face at alpha={alpha}")
            s_var = rng.fraction_between(0, 6)
            log_n = rng.fraction_between(0, 10)
            lhs = psi_value(spec, t_vec, s_var, log_n)
            rescaled = tuple(v / log_n for v in t_vec)
            rhs = log_n * max(_piece_value(pc, rescaled, s_var / log_n) for pc in high)
            checked += 1
            if lhs != rhs:
                failures.append(f"log-rescaling at t={t_vec} s={s_var} L={log_n}")
    return IdentityReport(checked=checked, failures=tuple(failures))


# ---------------------------------------------------------------------------
# stratified cross-validation


@dataclass(frozen=True)
class ValidationRecord:
    branch: str
    spec: ProblemSpec
    case: str
    theta: Fraction | None
    theta_lp: Fraction
    grid_lower: Fraction | None
    grid_best: Fraction | None
    identity_points: int
    ok: bool
    detail: str


def _fmt_tuple(values) -> str:
    return ",".join(str(v) for v in values)


def _json_number(x: Fraction | None):
    if x is None:
        return None
    return {"ratio": f"{x.numerator}/{x.denominator}", "decimal": decimal_str(x)}


@dataclass(frozen=True)
class ValidationReport:
    seed: int
    samples: int
    grid: int | None
    records: tuple[ValidationRecord, ...]

    @property
    def ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    def branch_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for rec in self.records:
            counts[rec.branch] = counts.get(rec.branch, 0) + 1
        return counts

    def to_text(self) -> str:
        lines = [
            "widthcalc verification report",
            f"seed={self.seed} samples={self.samples} grid={self.grid if self.grid else '-'}",
        ]
        counts = self.branch_counts()
        lines.append(
            "branches: "
            + (" ".join(f"{k}={counts[k]}" for k in sorted(counts)) if counts else "none")
        )
        for rec in self.records:
            spec = rec.spec
            parts = [
                rec.branch,
                f"r={_fmt_tuple(spec.r)}",
                f"p={_fmt_tuple(spec.p)}",
                f"q={spec.q}",
                f"case={rec.case}",
                f"theta={rec.theta}",
                f"lp={rec.theta_lp}",
            ]
            if rec.grid_lower is not None:
                parts.append(f"grid=[{rec.grid_lower},{rec.grid_best}]")
            if rec.identity_points:
                parts.append(f"id={rec.identity_points}")
            parts.append("ok" if rec.ok else f"FAIL({rec.detail})")
            lines.append(" ".join(parts))
        failed = sum(1 for rec in self.records if not rec.ok)
        lines.append(f"result: {'PASS' if failed == 0 else 'FAIL'} ({failed} failures)")
        return "\n".join(lines) + "\n"

    def to_json_dict(self) -> dict:
        return {
            "kind": "verification-report",
            "seed": self.seed,
            "samples": self.samples,
            "grid": self.grid,
            "ok": self.ok,
            "branches": self.branch_counts(),
            "records": [
                {
                    "branch": rec.branch,
                    "r": [str(v) for v in rec.spec.r],
                    "p": [str(v) for v in rec.spec.p],
                    "q": str(rec.spec.q),
                    "case": rec.case,
                    "theta": _json_number(rec.theta),
                    "theta_lp": _json_number(rec.theta_lp),
                    "grid_lower": _json_number(rec.grid_lower),
                    "grid_best": _json_number(rec.grid_best),
                    "identity_points": rec.identity_points,
                    "ok": rec.ok,
                    "detail": rec.detail,
                }
                for rec in self.records
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), sort_keys=True, indent=2) + "\n"


def cross_validate(
    samples: int,
    seed: int,
    grid: int | None = None,
    identity_points: int = 0,
) -> ValidationReport:
    """Sample specs round-robin over the nine branches and compare routes.

    Each record checks (1) the classified case matches the stratum,
    (2) the closed-form exponent equals the LP minimum exactly, (3) when
    `grid` is set, the bracket contains the exponent, and (4) when
    `identity_points` is set, the scaling identities hold exactly.
    """
    rng = Lcg(seed)
    records: list[ValidationRecord] = []
    for i in range(samples):
        label = BRANCH_LABELS[i % len(BRANCH_LABELS)]
        spec = sample_branch(rng, label)
        report = closedform.classify_regime(spec)
        result = minimize(build_objective(spec))
        problems: list[str] = []
        if report.case != label:
            problems.append(f"case={report.case}!={label}")
        if report.exponent is None:
            problems.append("no closed-form exponent")
        elif report.exponent != result.theta:
            problems.append(f"closed={report.exponent}!=lp={result.theta}")
        g_lower = g_best = None
        if grid is not None:
            bracket = grid_minimize(spec, grid)
            g_lower, g_best = bracket.lower, bracket.best_value
            if not bracket.contains(result.theta):
                problems.append(f"lp={result.theta} outside [{g_lower},{g_best}]")
        id_count = 0
        if identity_points:
            id_report = check_scaling_identities(
                spec, points=identity_points, seed=rng.rand_below(1 << 32)
            )
            id_count = id_report.checked
            if not id_report.ok:
                problems.append("; ".join(id_report.failures))
        records.append(
            ValidationRecord(
                branch=label,
                spec=spec,
                case=report.case,
                theta=report.exponent,
                theta_lp=result.theta,
                grid_lower=g_lower,
                grid_best=g_best,
                identity_points=id_count,
                ok=not problems,
                detail="; ".join(problems),
            )
        )
    return ValidationReport(seed=seed, samples=samples, grid=grid, records=tuple(records))
