"""Independent recomputation oracles for the decay-exponent machinery.

The closed forms in `closedform` and the LP route in `exponent` share no
code with this module beyond the parameter types and `params`' exact
arithmetic (`as_fraction`, `over_one_denominator`).  Everything here is
rebuilt from the defining formulas so that a bug in either route shows up
as a disagreement:

  * `grid_minimize` brackets the true minimum of the piecewise objective
    by the exact minimum over a rational lattice of denominator G, the
    call's `grid`.  No command runs it: `check_certificate` checks the
    LP's answer exactly at every supported d, where at G = 64·d the work
    budget below refuses many specs at d = 8 and every one from d = 12
    on; it stays as library code for the tests, the demos and the
    benchmark's tracer.  The objective is a max of affine pieces, hence
    Lipschitz; rounding any feasible point onto the lattice moves each
    coordinate by at most 1/G, so

        best − gap ≤ min ≤ best,   gap = (Σ_j max|coeff_j| + max|s coeff|)/G.

    The lattice minimum comes from a branch and bound in integer
    arithmetic, with no floats and no list of lattice points.  A cell's
    pieces are bounded in one pass that ends at the first piece whose
    minimum over the cell is strictly above the incumbent; only a cell
    that can tie or beat the incumbent has the objective evaluated at its
    bound's minimiser.  The work budget (`_BUDGET`, cells × pieces) counts
    each cell as it is entered, so cutting a cell short saves time without
    moving a refusal, and a refusal names the G it tried.
  * `check_scaling_identities` verifies, with zero tolerance, the two
    structural identities that tie the asymptotic objective to the
    finite-block rates: the s-face identity (the q > 2 objective on the
    face s = q/2 equals q/2 times the low-q-shaped objective) and the
    log-rescaling identity ψ(t̄, t; L) = L · h̃(t̄/L, t/L), plus positive
    homogeneity of the block rate φ.
  * `check_certificate` checks an LP result's duality certificate on this
    module's own pieces: the dual weights bound θ from below, and the
    argmin attains it, with no simplex run.  `exponent --check` and every
    `cross_validate` record run it.
  * `cross_validate` samples problem specs stratified over all nine
    closed-form branches, compares the closed form against the LP minimum,
    checks the LP result's certificate, and runs identity spot checks.  Its
    report is a deterministic function of (seed, samples, identity points):
    the generator is a fixed 64-bit linear congruential recurrence and the
    report holds no timestamps or environment details.

Reports are returned as data, never rendered here: `cli` prints them as
text and as JSON.

The pieces are integer rows over one common denominator, built by `_table`
for one spec and shape.  `_table` keeps the last two tables it built, the
two shapes of one spec, and every check fetches its own from it, so a
`cross_validate` record builds each shape it reads once (the certificate
builds the shape of q, which the identity checks reuse); a point is scaled
to integers once, and one `Fraction` is built only for a value that is
returned or compared.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
import operator
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from . import closedform
from .exponent import build_objective, minimize
from .params import ParameterError, ProblemSpec, RangeError, as_fraction, over_one_denominator

__all__ = [
    "Lcg",
    "BRANCH_LABELS",
    "SCREEN_LABEL",
    "sample_branch",
    "check_certificate",
    "GridBracket",
    "grid_minimize",
    "IdentityReport",
    "check_scaling_identities",
    "ValidationRecord",
    "ValidationReport",
    "cross_validate",
]

# Work allowed to one lattice bracket, in cells bounded × pieces per bound:
# a cell's cost grows with the piece count (82 pieces at d = 16, q > 2), so
# counting cells alone would let one input run far longer than another.
_BUDGET = 1 << 17

# Proposals `sample_branch` draws for one spec before it gives up.
_MAX_TRIES = 50_000

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
        """A rational strictly inside (lo, hi) with denominator ≤ max_den.

        `lo` and `hi` are exact rationals (`as_fraction`); an int or a
        `Fraction` is read as its integer (numerator, denominator) pair
        without building a `Fraction`.  One draw picks the denominator and
        one the numerator, whatever the bounds' types.
        """
        return Fraction(*self._between(lo, hi, max_den))

    def _between(self, lo, hi, max_den: int = 12) -> tuple[int, int]:
        """The draw of `fraction_between` as (numerator, denominator), not
        reduced, with no `Fraction` built."""
        feasible = _feasible(*_ratio(lo), *_ratio(hi), max_den)
        den, nmin, nmax = feasible[self.rand_below(len(feasible))]
        return nmin + self.rand_below(nmax - nmin + 1), den


def _ratio(x) -> tuple[int, int]:
    """(numerator, denominator) of the exact rational `x`, denominator > 0."""
    if not isinstance(x, (int, Fraction)):
        x = as_fraction(x)
    return x.numerator, x.denominator


@functools.lru_cache(maxsize=64)
def _feasible(
    ln: int, ld: int, hn: int, hd: int, max_den: int
) -> tuple[tuple[int, int, int], ...]:
    """Each den ≤ max_den with a numerator range [nmin, nmax] in (lo·den, hi·den),
    for lo = ln/ld and hi = hn/hd in lowest terms with ld, hd > 0.

    The cache is keyed on those integers, so a draw hashes five ints and
    never a `Fraction`.
    """
    if not ln * hd < hn * ld:
        raise ParameterError(f"empty interval ({Fraction(ln, ld)}, {Fraction(hn, hd)})")
    # Integer floor and ceiling of lo·den and hi·den.
    feasible = []
    for den in range(1, max_den + 1):
        nmin = ln * den // ld + 1
        nmax = -(-hn * den // hd) - 1
        if nmin <= nmax:
            feasible.append((den, nmin, nmax))
    if not feasible:
        lo, hi = Fraction(ln, ld), Fraction(hn, hd)
        raise ParameterError(f"no rational with denominator ≤ {max_den} in ({lo}, {hi})")
    return tuple(feasible)


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


def sample_branch(rng: Lcg, label: str) -> ProblemSpec:
    """Rejection-sample a spec whose classified case equals `label`."""
    if label not in BRANCH_LABELS and label != SCREEN_LABEL:
        raise ParameterError(f"unknown branch label {label!r}")
    for _ in range(_MAX_TRIES):
        try:
            spec = _propose(rng, label)
        except (ParameterError, ZeroDivisionError):
            continue
        if closedform.classify_regime(spec).case == label:
            return spec
    raise RuntimeError(f"failed to sample a {label} instance in {_MAX_TRIES} tries")


# ---------------------------------------------------------------------------
# independent objective evaluation


@functools.lru_cache(maxsize=2)
def _table(spec: ProblemSpec, high: bool):
    """The objective's pieces as integer rows over one denominator L: (L, rows).

    `high` False gives the low-q shape in ᾱ at any q, True the q > 2
    objective in (ᾱ, s).  With x_j = 1/p_j, x_q = 1/q, c_j = (x_j − x_q)/(1/2 − x_q):

      large-p          x_j ≤ x_q          r_j α_j
      small-p (low)    x_j ≥ x_q          r_j α_j + x_q − x_j
      mid-p (high)     x_q ≤ x_j ≤ 1/2    r_j α_j − (c_j/2)·s + c_j/2
      small-p (high)   x_j ≥ 1/2          r_j α_j − x_j·s + 1/2
      cross-lambda     x_i < x_q < x_j    (1 − λ) r_i α_i + λ r_j α_j
      cross-mu (high)  x_i < 1/2 < x_j    (1 − μ) r_i α_i + μ r_j α_j − s/2 + 1/2

    with (1 − λ)x_i + λx_j = x_q and (1 − μ)x_i + μx_j = 1/2.  A row is
    (tag, L × the coefficients of (α_1, …, α_d, s, 1)), the tag being
    (family, 0-based indices) as in `exponent.Provenance`.  The last two
    tables built are kept, enough for the two shapes of the spec that a
    `cross_validate` record checks; call it with positional arguments, as
    the cache keys on them.
    """
    d = spec.d
    # x_j, x_q and 1/2 as integers X_j, Q and H over one denominator D.
    D = math.lcm(2, spec.q.numerator, *(p.numerator for p in spec.p))
    X = [p.denominator * (D // p.numerator) for p in spec.p]
    Q = spec.q.denominator * (D // spec.q.numerator)
    H = D // 2
    rn, rd = [r.numerator for r in spec.r], [r.denominator for r in spec.r]
    pieces = []  # (tag, [(column, numerator, denominator), ...])
    for j in range(d):
        own = (j, rn[j], rd[j])
        if X[j] <= Q:
            pieces.append((("large-p", (j,)), [own]))
        if not high and X[j] >= Q:
            pieces.append((("small-p", (j,)), [own, (d + 1, Q - X[j], D)]))
        if high and Q <= X[j] <= H:
            half_c = [(d, Q - X[j], D - 2 * Q), (d + 1, X[j] - Q, D - 2 * Q)]
            pieces.append((("mid-p", (j,)), [own, *half_c]))
        if high and X[j] >= H:
            pieces.append((("small-p", (j,)), [own, (d, -X[j], D), (d + 1, H, D)]))
    crossings = [("cross-lambda", Q, [])]
    if high:
        crossings.append(("cross-mu", H, [(d, -H, D), (d + 1, H, D)]))
    for family, level, tail in crossings:
        for i, j in itertools.product(range(d), repeat=2):
            if X[i] < level < X[j]:
                span = X[j] - X[i]
                pair = [(i, rn[i] * (X[j] - level), rd[i] * span)]
                pair.append((j, rn[j] * (level - X[i]), rd[j] * span))
                pieces.append(((family, (i, j)), pair + tail))
    L = math.lcm(*(den // math.gcd(num, den) for _, terms in pieces for _, num, den in terms))
    rows = []
    for tag, terms in pieces:
        row = [0] * (d + 2)
        for column, num, den in terms:
            row[column] = num * L // den
        rows.append((tag, tuple(row)))
    return L, tuple(rows)


def _over_lcm(pairs) -> list[int]:
    """The rationals (numerator, denominator) `pairs` as integers over the
    lcm of their denominators; where that lcm cancels, it is not kept."""
    E = math.lcm(*(den for _, den in pairs))
    return [num * (E // den) for num, den in pairs]


def _top(rows, point) -> int:
    """The largest row value at integers `point` = E·(α_1, …, α_d, s, 1):
    the objective times L·E."""
    return max(sum(map(operator.mul, coeffs, point)) for _, coeffs in rows)


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
    L, rows = _table(spec, high)
    by_tag = dict(rows)
    theta, weights, alpha, s = result.theta, result.weights, result.argmin_alpha, result.argmin_s
    failures = []
    # λ_k = lam_k/M: positive with sum 1 iff every lam_k > 0 and Σ lam_k = M.
    M, lam = over_one_denominator([w for _, w in weights])
    if min(lam, default=0) <= 0 or sum(lam) != M:
        failures.append(f"weights are not positive with sum 1: {_listed(weights)}")
    if any(tag not in by_tag for tag, _ in weights):
        failures.append(f"a weighted piece is not a piece of the objective: {_listed(weights)}")
    else:
        # Σ λ_k·piece_k as one row over M·L, at the vertices c·e_j, s = c for
        # c = 1 and, when q > 2, c = q/2 (the low shape has no s slope); c = C/E.
        *w, slope, const = (
            sum(m * by_tag[tag][k] for m, (tag, _) in zip(lam, weights)) for k in range(spec.d + 2)
        )
        E = 2 * spec.q.denominator
        least = min(C * (v + slope) for C in ((E, spec.q.numerator) if high else (E,)) for v in w)
        bound = Fraction(least + E * const, M * L * E)
        if bound != theta:
            failures.append(f"dual bound {bound} != theta {theta}")
    outside = [f"argmin ({', '.join(map(str, alpha))}), s={s} is outside the domain"]
    if len(alpha) != spec.d or (s is None) == high:
        return failures + outside
    # ᾱ = a/E and s (1 when q ≤ 2) = S/E: the domain is a ≥ 0, Σa = S and,
    # when q > 2, 1 ≤ s ≤ q/2, that is 2q_d·E ≤ 2q_d·S ≤ q_n·E.
    E, point = over_one_denominator((*alpha, s if high else _ONE))
    *a, S = point
    qn, qd2 = spec.q.numerator, 2 * spec.q.denominator
    if min(a) < 0 or sum(a) != S or high and not qd2 * E <= qd2 * S <= qn * E:
        return failures + outside
    values = {tag: sum(map(operator.mul, c, point + [E])) for tag, c in rows}
    # A value v over L·E equals θ when v·θ_den = θ_num·L·E.
    target = theta.numerator * L * E
    if max(values.values()) * theta.denominator != target:
        top = Fraction(max(values.values()), L * E)
        failures.append(f"objective {top} at the argmin != theta {theta}")
    active = {tag for tag, v in values.items() if v * theta.denominator == target}
    if len(result.active_pieces) != len(active) or set(result.active_pieces) != active:
        failures.append(f"active pieces {result.active_pieces} != {sorted(active)}")
    return failures


def _listed(weights) -> str:
    """(tag, λ) pairs as `tag=a/b`, the form every rational is printed in."""
    return ", ".join(f"{tag}={w}" for tag, w in weights)


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


def grid_minimize(spec: ProblemSpec, grid: int) -> GridBracket:
    """Exact bracket of the objective minimum from a denominator-G lattice.

    q ≤ 2: points ᾱ = ā/G with ā ∈ Z≥0^d, Σā = G.  q > 2: additionally
    s = Σā/G with G ≤ Σā ≤ ⌊qG/2⌋.  `best_value` is the exact lattice
    minimum and `argmin` its lexicographically least minimiser, found by
    box branch and bound over ā in integers (Land & Doig 1960): a cell's
    lower bound is the largest piece minimum over the cell, the widest
    coordinate is split, and a cell is dropped once its (bound, lo corner)
    is not below the incumbent (value, argmin).  The pieces are bounded in
    one pass that stops at the first whose minimum is strictly above the
    incumbent's value, so such a cell is neither evaluated nor kept; the
    objective is evaluated at the bound's minimiser only where it can tie
    or beat the incumbent.  `points` is the lattice size; the work is
    budgeted in cells × pieces, counted as each cell is entered whether or
    not it is cut short, and a lattice that needs more raises `RangeError`.
    """
    d = spec.d
    G = int(grid)
    if G < 1:
        raise ParameterError(f"grid must be ≥ 1, got {G}")
    q = spec.q
    has_s = q > 2
    L, pieces = _table(spec, has_s)
    if has_s:
        K = (G * q.numerator) // (2 * q.denominator)
        # Σ_{G ≤ k ≤ K} C(k+d−1, d−1), by the hockey-stick identity.
        points = math.comb(K + d, d) - math.comb(G + d - 1, d)
    else:
        K = G
        points = math.comb(G + d - 1, d - 1)
    # With s = Σā/G each piece is affine in ā: G·L·value = G·constant +
    # Σ_j (weight_j + s slope)·ā_j, compared exactly as an int.
    rows = []
    for _, c in pieces:
        w = [v + c[d] for v in c[:d]]
        rows.append((c[d + 1] * G, w, sorted(range(d), key=w.__getitem__)))
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
                f"lattice bracket needs more than {_BUDGET} piece bounds (cells × pieces)"
                f" at G={G}"
            )
        # Each row's least value over the cell, lo ≤ ā ≤ hi with G ≤ Σā ≤ K,
        # is a continuous knapsack with unit weights, so filling the cheapest
        # coordinates first is exact in integers: negative weights as far as
        # Σā ≤ K allows, the rest only as far as G ≤ Σā forces.  The cell's
        # bound is the largest of these; between rows of equal value the
        # greatest minimiser wins, which fixes where the incumbent is tried.
        need0, room0 = G - s_lo, K - s_lo
        incumbent = None if best is None else best[0]
        bound = arg = None
        for c, w, order in rows:
            value = c + sum(map(operator.mul, w, lo))
            point = list(lo)
            need, room = need0, room0
            for j in order:
                wj = w[j]
                if room <= 0 or (wj >= 0 and need <= 0):
                    break
                take = min(hi[j] - lo[j], room if wj < 0 else need)
                value += wj * take
                point[j] += take
                need -= take
                room -= take
            if bound is None or value > bound:
                # No point of the cell is worth less than `value`: above the
                # incumbent's value, none can tie or beat it.
                if incumbent is not None and value > incumbent:
                    return
                bound, arg = value, point
            elif value == bound and point > arg:
                arg = point
        point = tuple(arg)
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
    # Over the columns of α_1, …, α_d and, when q > 2, s.
    lip = sum(max(abs(c[j]) for _, c in pieces) for j in range(d + has_s))
    return GridBracket(
        grid=G,
        best_value=Fraction(value, G * L),
        gap=Fraction(lip, G * L),
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
    Both sides run in integers over one denominator per point: φ and ψ on
    `spec.rate_rows`, the table `finitedim.phi_value` and `psi_value` read
    (built from `params.piece_rows`), h and h̃ on this module's own tables
    (`_table`).  A `Fraction` is built only for the text of a failure.
    """
    rng = Lcg(seed)
    failures: list[str] = []
    checked = 0
    d = spec.d
    low = _table(spec, False)
    high = _table(spec, True) if spec.q > 2 else None
    phi_L, phi_rows = spec.rate_rows(False)
    if high is not None:
        psi_L, psi_rows = spec.rate_rows(True)
    qn, qd = spec.q.numerator, spec.q.denominator
    for _ in range(points):
        t_vec = [rng._between(0, 4) for _ in range(d)]
        cn, cd = rng._between(0, 8)
        a = _over_lcm(t_vec)
        t = sum(a)
        # With t̄ = ā/E, φ(t̄)·L·E is the rows' max at (ā, t, 0), and
        # φ(c t̄)·L·E·c_d their max at c_n·(ā, t, 0).
        phi = _top(phi_rows, a + [t, 0])
        checked += 1
        if _top(phi_rows, [cn * v for v in a] + [cn * t, 0]) != cn * phi:
            failures.append(f"homogeneity at t={_rationals(t_vec)} c={Fraction(cn, cd)}")
        checked += 1
        # t·h(t̄/t) is the low table's max at (t̄, 0, t).
        if phi * low[0] != _top(low[1], a + [0, t]) * phi_L:
            failures.append(f"phi normalisation at t={_rationals(t_vec)}")
        if high is not None:
            u = [rng._between(0, 4) for _ in range(d)]
            # ᾱ = (q/2)·ū/Σū, so Σᾱ = q/2 exactly.  With ū = b̄/U and B = Σb̄,
            # ᾱ = q_n·b̄/(2q_d·B): both sides are integers over 2q_d·B·L.
            b = _over_lcm(u)
            B = sum(b)
            lhs = _top(high[1], [qn * v for v in b] + [qn * B, 2 * qd * B])
            rhs = qn * _top(low[1], b + [0, B])
            checked += 1
            if lhs * low[0] != rhs * high[0]:
                scale = spec.q / 2 / sum(_rationals(u))
                failures.append(f"s-face at alpha={tuple(scale * v for v in _rationals(u))}")
            s_var = rng._between(0, 6)
            log_n = rng._between(0, 10)
            # ψ(t̄, t; L) and L·h̃(t̄/L, s/L): both tables' max at (t̄, s, L).
            point = _over_lcm(t_vec + [s_var, log_n])
            checked += 1
            if _top(psi_rows, point) * high[0] != _top(high[1], point) * psi_L:
                failures.append(
                    f"log-rescaling at t={_rationals(t_vec)} s={Fraction(*s_var)}"
                    f" L={Fraction(*log_n)}"
                )
    return IdentityReport(checked=checked, failures=tuple(failures))


def _rationals(pairs) -> tuple[Fraction, ...]:
    return tuple(Fraction(num, den) for num, den in pairs)


# ---------------------------------------------------------------------------
# stratified cross-validation


@dataclass(frozen=True)
class ValidationRecord:
    branch: str
    spec: ProblemSpec
    case: str
    theta: Fraction | None
    theta_lp: Fraction
    identity_points: int
    ok: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    seed: int
    samples: int
    records: tuple[ValidationRecord, ...]

    @property
    def ok(self) -> bool:
        return all(rec.ok for rec in self.records)

    def branch_counts(self) -> dict[str, int]:
        return dict(Counter(rec.branch for rec in self.records))


def cross_validate(samples: int, seed: int, identity_points: int = 0) -> ValidationReport:
    """Sample specs round-robin over the nine branches and compare routes.

    Each record checks (1) the classified case matches the stratum,
    (2) the closed-form exponent equals the LP minimum exactly, (3) the LP
    result's duality certificate holds (`check_certificate`, on the table
    of the shape of q), and (4) when `identity_points` is set, the scaling
    identities hold exactly.  A record fails when any check fails, and its
    `detail` names each failed check.
    """
    rng = Lcg(seed)
    records: list[ValidationRecord] = []
    for i in range(samples):
        label = BRANCH_LABELS[i % len(BRANCH_LABELS)]
        spec = sample_branch(rng, label)
        # A lookup: `sample_branch` classified this spec when it accepted it.
        report = closedform.classify_regime(spec)
        result = minimize(build_objective(spec))
        problems: list[str] = []
        if report.case != label:
            problems.append(f"case={report.case}!={label}")
        if report.exponent is None:
            problems.append("no closed-form exponent")
        elif report.exponent != result.theta:
            problems.append(f"closed={report.exponent}!=lp={result.theta}")
        failures = check_certificate(spec, result)
        if failures:
            problems.append("certificate: " + "; ".join(failures))
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
                identity_points=id_count,
                ok=not problems,
                detail="; ".join(problems),
            )
        )
    return ValidationReport(seed=seed, samples=samples, records=tuple(records))
