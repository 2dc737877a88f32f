"""References and samplers shared by several test modules.

The package does not call any of these; the tests compare its results
against them or draw their inputs from them.  The module name does not
match `test_*.py`, so pytest imports it only through the tests.
"""

from dataclasses import dataclass
from fractions import Fraction

from widthcalc.closedform import noncompact_screen
from widthcalc.finitedim import BallSpec, IntersectionSpec
from widthcalc.oracle import Lcg
from widthcalc.params import ParameterError, ProblemSpec, as_fraction
from widthcalc.values import INF

_HALF = Fraction(1, 2)


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
    """Compact embedding: positive margin and the screen does not fire."""
    if noncompact_screen(spec):
        return False
    return spec.compact_margin() > 0


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
