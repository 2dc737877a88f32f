"""Whole-system guarantees, checked end to end in exact arithmetic.

Every test here states one external guarantee of the package and checks
it at full advertised strength: independent computation routes agree
with zero residual, brackets and certificates are sound at their stated
tolerances, and reports are reproducible byte for byte.  These runs are
slower than the unit tests and deliberately overlap them.
"""

import itertools
import time
from collections import Counter
from fractions import Fraction as F

import pytest
from _reference import cross_term_dominated, sample_intersection

import widthcalc.cli as cli
from widthcalc.closedform import classify_regime
from widthcalc.exponent import build_objective, minimize
from widthcalc.finitedim import (
    IntersectionSpec,
    classify_branch,
    intersection_order,
    single_ball_order,
)
from widthcalc.oracle import (
    BRANCH_LABELS,
    SCREEN_LABEL,
    Lcg,
    check_scaling_identities,
    cross_validate,
    grid_minimize,
    sample_branch,
)
from widthcalc.params import ProblemSpec
from widthcalc.values import INF, PowerProduct, inv_exponent, is_inf

SEED = 20260826


@pytest.fixture(scope="module")
def agreement():
    """200 sampled specs per closed-form branch, closed form vs LP."""
    start = time.perf_counter()
    report = cross_validate(200 * len(BRANCH_LABELS), seed=SEED)
    return report, time.perf_counter() - start


def test_closed_forms_match_the_lp_on_every_branch(agreement):
    report, elapsed = agreement
    assert report.ok, "; ".join(rec.detail for rec in report.records if not rec.ok)
    counts = report.branch_counts()
    assert set(counts) == set(BRANCH_LABELS)
    assert all(count >= 200 for count in counts.values())
    assert elapsed < 60.0
    print(f"PASS: {report.samples} specs, zero residual, {elapsed:.1f}s")


def test_grid_brackets_contain_the_exponent(agreement):
    report, _ = agreement
    for rec in report.records:
        bracket = grid_minimize(rec.spec, 128 * rec.spec.d)
        assert bracket.contains(rec.theta_lp), (rec.spec, bracket)
    print(f"PASS: {len(report.records)} brackets at G=128·d")


def _higher_d_specs(rng, per_side):
    """Random specs at d = 3..8, `per_side` on each side of q = 2."""
    for d in range(3, 9):
        for high in (False, True):
            for _ in range(per_side):
                if high:
                    q = rng.fraction_between(2, 6)
                else:
                    q = F(2) if rng.rand_below(4) == 0 else rng.fraction_between(1, 2)
                p = tuple(rng.fraction_between(1, q + 4) for _ in range(d))
                r = tuple(rng.fraction_between(F(1, 2), 4) for _ in range(d))
                yield ProblemSpec(r=r, p=p, q=q)


def test_closed_forms_match_the_lp_at_higher_d():
    cases: Counter = Counter()
    for spec in _higher_d_specs(Lcg(7), per_side=40):
        report = classify_regime(spec)
        cases[report.case] += 1
        if report.exponent is not None:
            assert report.exponent == minimize(build_objective(spec)).theta, spec
    assert sum(cases.values()) == 480
    for label in ("T1.1", "T1.2b", "T1.3b", "T1.3c"):
        assert cases[label] >= 50, cases
    print(f"PASS: 480 specs at d = 3..8, zero residual, {dict(cases)}")


def test_scaling_identities_have_zero_residual():
    rng = Lcg(SEED + 3)
    labels = ("T1.3a", "T1.3b", "T1.3c", "T4.2a", "T4.2b")
    specs = [sample_branch(rng, label) for label in labels for _ in range(10)]
    checked = 0
    for spec in specs:
        report = check_scaling_identities(spec, points=1000, seed=rng.rand_below(1 << 32))
        assert report.ok, (spec, report.failures[:3])
        checked += report.checked
    print(f"PASS: {checked} identity evaluations over {len(specs)} specs")


def test_exact_width_formula_on_a_dense_parameter_grid():
    dims = (1, 2, 3, 4, 5, 6, 8, 10, 12, 16)
    ranks = tuple(range(10))
    exponents = (F(1), F(4, 3), F(2), F(5, 2), F(3), INF)
    checked = 0
    for N, n, p, q in itertools.product(dims, ranks, exponents, exponents):
        if n > N:
            continue
        if inv_exponent(q) < inv_exponent(p):
            continue  # only the q ≤ p regime has the exact formula
        order = single_ball_order(N, min(n, N), p, q)
        if n == N:
            expected = PowerProduct.zero()
        else:
            expected = PowerProduct.from_pow(N - n, inv_exponent(q) - inv_exponent(p))
        assert order.branch == "exact"
        assert order.value == expected, (N, n, p, q)
        checked += 1
    assert checked >= 900
    print(f"PASS: {checked} exact widths, zero tolerance")


def test_certificates_reproduce_their_branch_values_exactly():
    rng = Lcg(SEED + 5)
    kinds: Counter = Counter()
    verified = 0
    while verified < 500:
        spec = sample_intersection(rng)
        case, cert = classify_branch(spec)
        if cert is None:
            continue
        assert cert.verify(), (spec, case)
        assert cert.certified_value == intersection_order(spec).value, (spec, case)
        kinds[case] += 1
        verified += 1
    assert set(kinds) == {
        "small-dominant",
        "large-dominant",
        "mid-dominant",
        "cross-lambda-dominant",
        "cross-mu-dominant",
    }
    print(f"PASS: 500 certificates, {dict(kinds)}")


def test_interpolated_cross_terms_never_set_the_block_rate():
    rng = Lcg(SEED + 6)
    specs = [sample_branch(rng, label) for label in ("T1.3c", "T4.2b") for _ in range(10)]
    checked = 0
    for spec in specs:
        for _ in range(50):
            m_vec = tuple(rng.fraction_between(0, 8) for _ in range(spec.d))
            checks = cross_term_dominated(spec, m_vec)
            assert checks, spec
            assert all(c.holds for c in checks), (spec, m_vec)
            checked += len(checks)
    print(f"PASS: {checked} domination inequalities over 1000 profiles")


def test_saturated_regularity_sums_imply_a_nonpositive_exponent():
    rng = Lcg(SEED + 7)
    for _ in range(100):
        spec = sample_branch(rng, SCREEN_LABEL)
        report = classify_regime(spec)
        assert report.case == SCREEN_LABEL and not report.compact, spec
        assert minimize(build_objective(spec)).theta <= 0, spec
    print("PASS: 100 screened specs, no contradictions")


def _anchor_spec(r, p, q):
    return ProblemSpec(r=tuple(F(v) for v in r), p=tuple(F(v) for v in p), q=F(q))


ANCHORS = [
    # (spec, case, frozen exponent)
    (_anchor_spec((1, 1), (3, 3), 2), "T1.1", F(1, 2)),
    (_anchor_spec((1, 1), ("3/2", "3/2"), 2), "T1.2a", F(1, 3)),
    (_anchor_spec((1, 1), (3, 3), 4), "T1.3b", F(1, 2)),
    (_anchor_spec((1, "1/4"), (8, "8/5"), 2), "T4.1", F(3, 16)),
]


def test_reference_exponents_are_frozen():
    for spec, case, frozen in ANCHORS:
        report = classify_regime(spec)
        assert report.case == case
        assert report.exponent == frozen
        assert minimize(build_objective(spec)).theta == frozen
        bracket = grid_minimize(spec, 128 * spec.d)
        assert bracket.contains(frozen), (spec, bracket)
    print(f"PASS: {len(ANCHORS)} frozen exponents recomputed on three routes")


def test_reference_intersection_value_is_frozen():
    spec = IntersectionSpec(N=16, n=4, q=2, balls=((INF, F(1, 4)), (1, F(1))))
    order = intersection_order(spec)
    assert order.value == PowerProduct.from_fraction(F(1, 2))
    assert order.branch == "cross-lambda"
    case, cert = classify_branch(spec)
    assert case == "cross-lambda-dominant"
    assert cert.k == 4 and cert.scale == PowerProduct.from_fraction(F(1, 4))
    assert cert.verify() and cert.certified_value == order.value
    print("PASS: frozen intersection value 1/2 with verified certificate")


def test_verification_reports_are_byte_identical(capsys):
    argv = ["verify", "--samples", "500", "--seed", "42"]
    code_a = cli.main(list(argv))
    out_a = capsys.readouterr().out
    code_b = cli.main(list(argv))
    out_b = capsys.readouterr().out
    assert code_a == code_b == 0
    assert out_a.encode() == out_b.encode()
    assert out_a.endswith("result: PASS (0 failures)\n")
    print("PASS: two 500-sample verification runs, identical bytes")
