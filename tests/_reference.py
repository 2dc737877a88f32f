"""References and samplers shared by several test modules.

The package does not call any of these; the tests compare its results
against them or draw their inputs from them.  The module name does not
match `test_*.py`, so pytest imports it only through the tests.
"""

import functools
import importlib.util
import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from pathlib import Path

from hypothesis import strategies as st

from widthcalc import finitedim as fd
from widthcalc._simplex import LpError
from widthcalc.closedform import RegimeReport
from widthcalc.finitedim import BallSpec, IntersectionSpec
from widthcalc.oracle import Lcg
from widthcalc.params import MAX_DIMENSION, ParameterError, ProblemSpec, as_fraction
from widthcalc.values import INF, PowerProduct, _brent, _coprime_base, _over, _perfect_root

_HALF = Fraction(1, 2)
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@functools.cache
def perfbench_gen():
    """The benchmark's input generators, `perfbench/gen.py`, as a module."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", PERFBENCH / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    return gen


def catalog_argvs():
    """Every catalog argv of the benchmark's workloads, from its generators."""
    gen = perfbench_gen()
    for workload in gen.WORKLOADS:
        with open(PERFBENCH / "reference" / f"{workload}.json", encoding="utf-8") as fh:
            strata = json.load(fh)["strata"]
        for stratum, entries in strata.items():
            for index, _ in entries:
                yield gen.entry_argv(stratum, index)


def permuted(spec: ProblemSpec, order: tuple[int, ...]) -> ProblemSpec:
    """The same spec with coordinates reordered by `order`."""
    if sorted(order) != list(range(spec.d)):
        raise ParameterError(f"not a permutation of 0..{spec.d - 1}: {order}")
    return ProblemSpec(
        r=tuple(spec.r[i] for i in order),
        p=tuple(spec.p[i] for i in order),
        q=spec.q,
    )


def check_compact(spec: ProblemSpec) -> bool:
    """Compact embedding, as `reference_classify_regime` reports it."""
    return reference_classify_regime(spec).compact


# The closed forms in `Fraction` arithmetic, straight from their definitions:
# harmonic means, 1/p_j and 1/q, with no integer over a common denominator.
_RIVALS = {"T1.2a": ("theta2",), "T1.3a": ("theta2", "theta3"), "T1.3b": ("theta1", "theta3")}


def _reference_strict_min(regular, case, thetas):
    values = sorted(thetas[k] for k in _RIVALS.get(case, thetas))
    if len(values) > 1 and values[0] == values[1]:
        return RegimeReport(True, True, regular, "uncovered", thetas, None, tie=True)
    return RegimeReport(True, True, regular, case, thetas, values[0])


def reference_classify_regime(spec: ProblemSpec) -> RegimeReport:
    """`closedform.classify_regime` from the `Fraction` formulas of its
    module docstring, screen by screen in the same order."""
    d, q, r = spec.d, spec.q, spec.r
    x = [1 / p for p in spec.p]
    x_q = 1 / q
    r_mean = d / sum(1 / rj for rj in r)
    pr_mean = d / sum(1 / (pj * rj) for pj, rj in zip(spec.p, r))
    margin = r_mean / d + x_q - r_mean / pr_mean
    M = [sum((1 / r[i]) * (x[i] - x[j]) for i in range(d)) for j in range(d)]
    regular = all(m < 1 for m in M)
    bounded = margin >= 0
    theta1 = r_mean / d
    if all(xj >= x_q for xj in x) and not regular:  # all p_j ≤ q
        return RegimeReport(bounded, False, regular, "T3-noncompact")
    if all(xj <= x_q for xj in x):  # all p_j ≥ q
        return _reference_strict_min(regular, "T1.1", {"theta1": theta1})
    if margin > 0 and regular:
        if q <= 2:
            case = "T1.2a" if all(xj >= x_q for xj in x) else "T1.2b"
            return _reference_strict_min(regular, case, {"theta1": theta1, "theta2": margin})
        low, high = all(xj >= _HALF for xj in x), all(xj <= _HALF for xj in x)
        case = "T1.3a" if low else "T1.3b" if high else "T1.3c"
        theta2 = theta1 + _HALF - r_mean / pr_mean
        thetas = {"theta1": theta1, "theta2": theta2, "theta3": q / 2 * margin}
        return _reference_strict_min(regular, case, thetas)
    if margin <= 0:
        return RegimeReport(bounded, False, regular, "uncovered")
    if d == 2 and (x[0] - x_q) * (x[1] - x_q) < 0:  # p_hi > q > p_lo
        hi, lo = (0, 1) if x[0] < x_q else (1, 0)
        x_hi, x_lo, r_lo = x[hi], x[lo], r[lo]
        if r_lo <= x_lo - x_hi:
            lam = (x_q - x_hi) / (x_lo - x_hi)
            if q <= 2:
                thetas = {"theta1": theta1, "theta2": lam * r_lo}
                return _reference_strict_min(regular, "T4.1", thetas)
            s_hat = 1 / (1 - r_lo * (1 - 2 / q) / (x_lo - x_hi))
            thetas = {"theta1": theta1, "theta2": s_hat * lam * r_lo}
            if x_lo <= _HALF:  # p_lo ≥ 2
                return _reference_strict_min(regular, "T4.2a", thetas)
            thetas["theta3"] = (_HALF - x_hi) / (x_lo - x_hi) * r_lo
            return _reference_strict_min(regular, "T4.2b", thetas)
    return RegimeReport(bounded, True, regular, "uncovered")


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


# (N, q) with N^(2/q) an integer n ≤ N/2: at n = N^(2/q) the factor
# g = n^(−1/2) N^(1/q) is 1, so the terms of different families tie often.
_TIE_WINDOWS = ((4, 4), (16, 4), (8, 6), (16, 8))
_TIE_EXPONENTS = tuple(
    Fraction(v) for v in ("1", "5/4", "4/3", "3/2", "5/3", "7/4", "5/2", "3", "4", "5", "6", "8")
)


def sample_tie_intersection(rng: Lcg, max_balls: int = 4) -> IntersectionSpec:
    """A ball intersection at the lower end n = N^(2/q) of the q > 2 window.

    q ∈ {4, 6, 8}, N ∈ {4, 8, 16}, radii 2^k with −4 ≤ k ≤ 4, and ball
    exponents from small-denominator values or inf (p = 2 is left out: at
    q > 2 it is a threshold, where no term is certified).  Equal radii and
    g = 1 make many terms equal, so the order of a tie-break shows.
    """
    N, q = _TIE_WINDOWS[rng.rand_below(len(_TIE_WINDOWS))]
    n = round(N ** (2 / q))
    balls = []
    for _ in range(2 + rng.rand_below(max_balls - 1)):
        k = rng.rand_below(len(_TIE_EXPONENTS) + 1)
        p = INF if k == len(_TIE_EXPONENTS) else _TIE_EXPONENTS[k]
        balls.append(BallSpec(p, Fraction(2) ** (rng.rand_below(9) - 4)))
    return IntersectionSpec(N=N, n=n, q=q, balls=tuple(balls))


def _dominant_pair(nu, x, rows, cols, level, l_min, l_max):
    """(a, l, c_ab) for the first pair (a, b) over `rows` × `cols` whose
    interpolated radius c_ab at `level` is least along its row and its
    column, and whose ideal sparsity l lies in [l_min, l_max], that is
    ν_b l_max^(x_a−x_b) ≤ ν_a ≤ ν_b l_min^(x_a−x_b); None if there is none.
    """
    for a in rows:
        for b in cols:
            cab = fd._cross_value(nu[a], nu[b], x[a], x[b], level)
            if (
                all(cab <= fd._cross_value(nu[a], nu[g], x[a], x[g], level) for g in cols)
                and all(cab <= fd._cross_value(nu[g], nu[b], x[g], x[b], level) for g in rows)
                and nu[b] * l_max ** (x[a] - x[b]) <= nu[a] <= nu[b] * l_min ** (x[a] - x[b])
            ):
                return a, fd._ideal_sparsity(nu[a], nu[b], x[a], x[b]), cab
    return None


def reference_classify_branch(spec: IntersectionSpec):
    """`finitedim.classify_branch` as a search for dominance patterns.

    With large = {x_α < x_q}, mid = {x_q < x_α < 1/2} (empty for q ≤ 2) and
    small = {x_α > max(x_q, 1/2)}, the cases are tested in this fixed order
    and the first match wins:

        small-dominant         a small ν_α is the least radius,
        large-dominant         a large ν_α N^(x_γ−x_α) is below every ν_γ,
        mid-dominant           a mid ν_α at the budget sparsity,
        cross-lambda-dominant  a (large, mid + small) pair at level 1/q,
        cross-mu-dominant      a (large + mid, small) pair at level 1/2 (q > 2).

    A cross-lambda pair needs its ideal sparsity in [budget, N] for q > 2
    and in [1, N] for q ≤ 2; a cross-mu pair needs it in [1, budget].  The
    chosen ball or pair goes to the package's certificate builders.
    Returns ("unclassified", None) on a threshold exponent or when no
    pattern holds.
    """
    high = spec.q > 2
    x_q = 1 / spec.q
    x = spec.x
    if x_q in x or (high and _HALF in x):
        return "unclassified", None
    nu = spec.nu
    idx = range(len(spec.balls))
    large = [a for a in idx if x[a] < x_q]
    mid = [a for a in idx if x_q < x[a] < _HALF]
    small = [a for a in idx if x[a] > max(x_q, _HALF)]
    for a in small:
        if all(nu[a] <= nu[g] for g in idx):
            return "small-dominant", fd._b1_certificate(spec, a)
    for a in large:
        if all(nu[a] * PowerProduct.from_pow(spec.N, x[g] - x[a]) <= nu[g] for g in idx):
            return "large-dominant", fd._binf_certificate(spec, a)
    one = PowerProduct.one()
    budget = spec.g ** (1 / (x_q - _HALF)) if high else one
    for a in mid:
        if all(nu[a] * budget ** (x[g] - x[a]) <= nu[g] for g in idx):
            return "mid-dominant", fd._vk_certificate(
                spec,
                a,
                budget,
                fd._int_ceil(budget),
                nu[a] * budget ** (x_q - x[a]),
                high_side=False,
                note="sparsity matches the budget: n = N^(2/q) l^(1-2/q)",
            )
    full = PowerProduct.from_fraction(spec.N)
    pair = _dominant_pair(nu, x, large, mid + small, x_q, budget, full)
    if pair:
        a, l_value, cab = pair
        return "cross-lambda-dominant", fd._vk_certificate(
            spec,
            a,
            l_value,
            fd._int_ceil(l_value),
            cab,
            high_side=False,
            note="sparsity interpolates the two dominant balls at level 1/q",
        )
    pair = _dominant_pair(nu, x, large + mid, small, _HALF, one, budget) if high else None
    if pair:
        a, l_value, cab = pair
        return "cross-mu-dominant", fd._vk_certificate(
            spec,
            a,
            l_value,
            fd._int_floor(l_value),
            cab * spec.g,
            high_side=True,
            note="sparsity interpolates the two dominant balls at level 1/2",
        )
    return "unclassified", None


def reciprocals(spec: ProblemSpec):
    """(x̄, x_q) = ((1/p_1, …, 1/p_d), 1/q) of a spec, as `Fraction`s."""
    return tuple(1 / p for p in spec.p), 1 / spec.q


def scaled(x, x_q):
    """(X, Q, D): x̄ and x_q as integers over D = lcm(2, their denominators),
    the arguments of `params.piece_rows`."""
    D = lcm(2, x_q.denominator, *(v.denominator for v in x))
    X = [v.numerator * (D // v.denominator) for v in x]
    return X, x_q.numerator * (D // x_q.denominator), D


def plain_piece_rows(x, x_q, high):
    """The piece table of `params.piece_rows`' docstring in `Fraction`s, one
    step at a time: rows (family, indices, weights, t_coeff, logn_coeff,
    n_power)."""
    d = len(x)
    rows = [("large-p", (j,), (1,), 0, 0, x_q - x[j]) for j in range(d) if x[j] <= x_q]
    if high:
        theta_q = _HALF - x_q
        for j in range(d):
            if x_q <= x[j] <= _HALF:
                c = (x[j] - x_q) / theta_q
                rows.append(("mid-p", (j,), (1,), -c / 2, c / 2, 0))
        rows += [("small-p", (j,), (1,), -x[j], _HALF, 0) for j in range(d) if x[j] >= _HALF]
    else:
        rows += [("small-p", (j,), (1,), x_q - x[j], 0, 0) for j in range(d) if x[j] >= x_q]
    levels = [("cross-lambda", x_q, 0, 0)] + ([("cross-mu", _HALF, -_HALF, _HALF)] if high else [])
    for family, level, t_coeff, logn_coeff in levels:
        for i in range(d):
            for j in range(d):
                if x[i] < level < x[j]:
                    lam = (level - x[i]) / (x[j] - x[i])
                    rows.append((family, (i, j), (1 - lam, lam), t_coeff, logn_coeff, 0))
    return rows


def fraction_row(row):
    """A `params.piece_rows` row, integers over its den, in the `Fraction`
    form of `plain_piece_rows`."""
    family, idx, den, weights, *coeffs = row
    return (family, idx, tuple(Fraction(w, den) for w in weights),
            *(Fraction(v, den) for v in coeffs))


def reference_rate_rows(spec: ProblemSpec, high: bool):
    """`ProblemSpec.rate_rows` built from `plain_piece_rows`, one `Fraction`
    per coefficient: (L, rows), each row ((family, indices), L times the
    coefficients of (α_1, …, α_d, s, 1)), L the lcm of their denominators."""
    d = spec.d
    pieces = []  # (tag, the nonzero (column, coefficient) pairs of the row)
    for family, idx, weights, t_coeff, logn_coeff, _ in plain_piece_rows(*reciprocals(spec), high):
        terms = [(i, Fraction(w) * spec.r[i]) for i, w in zip(idx, weights)]
        terms += [(j, Fraction(v)) for j, v in ((d, t_coeff), (d + 1, logn_coeff)) if v]
        pieces.append(((family, idx), terms))
    L = lcm(*(v.denominator for _, terms in pieces for _, v in terms))
    rows = []
    for tag, terms in pieces:
        row = [0] * (d + 2)
        for j, v in terms:
            row[j] = v.numerator * (L // v.denominator)
        rows.append((tag, tuple(row)))
    return L, tuple(rows)


def reference_terms(spec: IntersectionSpec):
    """`IntersectionSpec.terms` from `plain_piece_rows`, with the `Fraction`
    exponents taken as they stand."""
    terms = []
    for family, idx, weights, _, logn_coeff, n_power in plain_piece_rows(
        spec.x, spec.x_q, spec.g is not None
    ):
        value = PowerProduct.one()
        for i, w in zip(idx, weights):
            value = value * spec.nu[i] ** Fraction(w)
        if n_power:
            value = value * PowerProduct.from_pow(spec.N, n_power)
        if logn_coeff:
            value = value * spec.g ** (2 * logn_coeff)
        terms.append((family, idx, value))
    return tuple(terms)


@dataclass(frozen=True)
class DominationCheck:
    i: int
    j: int
    lhs: Fraction
    rhs: Fraction

    @property
    def holds(self) -> bool:
        return self.lhs <= self.rhs


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
    (x, x_q), r = reciprocals(spec), spec.r
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


# Specs at d = 16, the largest d the package accepts.  The θ and
# uniqueness verdicts of the first two were computed once with the earlier
# simplex, which pivoted on a `Fraction` tableau (about 15 s for the q = 5
# spec), and are frozen here; the third, a flat optimum, was computed with
# the per-coordinate face probes.  The last field is the exact compactness
# verdict: the q = 5 spec has θ > 0 but margin −3862663/41018435, so it is
# not compact.
D16_ANCHORS = [
    (  # q > 2, not compact; p̄ has coordinates below 2, between 2 and q, above q
        "5/4,5/4,7/4,2,3/2,11/4,13/4,13/4,3/2,5/4,7/2,3/2,9/4,7/4,3/4,2",
        "3/2,4,3/2,39/4,7/4,19/2,3,7/2,15/4,7/4,6,7,5/4,5/4,21/4,5/2",
        "5",
        Fraction(3252249, 74654120),
        True,
        False,
    ),
    (  # q ≤ 2, straddling: one p_j above q, the rest below it
        "2,9/4,2,3,13/4,3/2,11/4,5/2,5/2,11/4,7/4,3/4,15/4,11/4,3/4,1",
        "11/8,3/2,5/4,5/4,13/8,5,3/2,3/2,5/4,9/8,11/8,3/2,13/8,13/8,11/8,11/8",
        "7/4",
        Fraction(3262545, 38309251),
        True,
        True,
    ),
    (  # q = 2, flat: θ1 = margin = 1/8, so the optimal face is not a point
        ",".join(["2"] * 16),
        ",".join(["3", "3/2"] * 8),
        "2",
        Fraction(1, 8),
        False,
        True,
    ),
]


units = st.fractions(min_value=Fraction(1, 10), max_value=1, max_denominator=10)


@st.composite
def threshold_specs(draw):
    """Specs at d = 2..16 on both sides of q = 2, some p_j on 2 or on q."""
    d = draw(st.integers(2, MAX_DIMENSION))
    q = draw(st.sampled_from([Fraction(2), 1 + draw(units), 2 + 4 * draw(units)]))
    on = st.sampled_from([Fraction(2), q])
    off = units.map(lambda u: 1 + (2 * q + 2) * u)
    p = [draw(st.one_of(on, off)) for _ in range(d)]
    r = [4 * draw(units) for _ in range(d)]
    return ProblemSpec(r=r, p=p, q=q)


# The reference pivot loop: `_iterate`, `_pivot` and the `_reduced` they
# call, in the earlier form that reduced every updated row through
# `_reduced` and chose the entering column in two passes.  Swapped into
# `widthcalc._simplex` for its own, they must take the same pivots to the
# same final tableau.


def _reduced(row: list[int], den: int) -> tuple[list[int], int]:
    g = gcd(den, *row)
    if g == 1:
        return row, den
    return [v // g for v in row], den // g


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


# ---------------------------------------------------------------------------
# integer factoring as it was before the gcd screen and the per-size
# Miller–Rabin base count: `_is_probable_prime`, `_split` and `_factor` are
# copied unchanged (without `_factor`'s cache), with the trial-division list
# they were built on.  `_split` is copied too so that the reference runs its
# own primality test; the helpers it shares are unchanged in the package.

_TRIAL_BITS = 10
_SMALL_PRIMES = tuple(
    p for p in range(2, 1 << _TRIAL_BITS) if all(p % d for d in range(2, isqrt(p) + 1))
)
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_PROVEN = 3317044064679887385961981


def _is_probable_prime(n: int) -> bool:
    """Strong probable prime to every base in `_MR_BASES` (n odd, n > 41)."""
    d, s = n - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _split(m: int, mult: int, out: dict[int, int], unproven: set[int]) -> None:
    """Add m^mult to `out`; m > 1 has no prime factor below 2^10."""
    if m < 1 << 2 * _TRIAL_BITS:
        out[m] = out.get(m, 0) + mult
        return
    r, k = _perfect_root(m)
    if k > 1:
        _split(r, mult * k, out, unproven)
        return
    if _is_probable_prime(m):
        if m >= _MR_PROVEN:
            unproven.add(m)
        out[m] = out.get(m, 0) + mult
        return
    d = _brent(m)
    if d is None:
        unproven.add(m)
        out[m] = out.get(m, 0) + mult
        return
    _split(d, mult, out, unproven)
    _split(m // d, mult, out, unproven)


def _factor(n: int) -> tuple[tuple[int, int, bool], ...]:
    """n ≥ 1 as (base, multiplicity, proven prime) triples, bases ascending.

    The bases are pairwise coprime and none is a perfect power.  Each is a
    proven prime unless Pollard–Brent ran out of budget on it or it is a
    probable prime at or above `_MR_PROVEN`.
    """
    out: dict[int, int] = {}
    twos = (n & -n).bit_length() - 1
    if twos:
        out[2] = twos
        n >>= twos
    for p in _SMALL_PRIMES[1:]:
        if p * p > n:
            break
        if n % p == 0:
            # Divide by p, p², p⁴, … while exact, then by the same powers
            # downwards: O(log mult) divisions, not one per factor of p.
            powers = [p]
            while n % powers[-1] == 0:
                n //= powers[-1]
                powers.append(powers[-1] ** 2)
            mult = (1 << (len(powers) - 1)) - 1
            for i in range(len(powers) - 2, -1, -1):
                if n % powers[i] == 0:
                    n //= powers[i]
                    mult += 1 << i
            out[p] = mult
    unproven: set[int] = set()
    if n > 1:
        _split(n, 1, out, unproven)
    if unproven:  # split-off factors may share primes with a kept cofactor
        proven = out.keys() - unproven
        out = _over(out, _coprime_base(out))
        unproven = out.keys() - proven
    return tuple((b, m, b not in unproven) for b, m in sorted(out.items()))
