"""
Three routes to the same exponent
=================================

The package computes every decay exponent three independent ways: a
closed form picked by the regime classifier, an exact-rational LP, and an
exact lattice bracket.  This script samples one spec per branch
and shows the three routes landing on the same rational.
"""

from widthcalc import (
    BRANCH_LABELS,
    Lcg,
    build_objective,
    classify_regime,
    grid_minimize,
    minimize,
    sample_branch,
)
from widthcalc.cli import main

rng = Lcg(1)
print(f"{'branch':8s} {'theta':>8s} {'lp':>8s} {'bracket':>23s}")
for label in BRANCH_LABELS:
    spec = sample_branch(rng, label)
    closed = classify_regime(spec).exponent
    lp = minimize(build_objective(spec)).theta
    bracket = grid_minimize(spec, 64)
    mark = "ok" if closed == lp and bracket.contains(lp) else "DISAGREE"
    print(f"{label:8s} {str(closed):>8s} {str(lp):>8s} "
          f"[{str(bracket.lower):>10s}, {str(bracket.best_value):>8s}] {mark}")

# The bracket is two-sided and shrinks fourfold per refinement, so a
# disagreement between the routes cannot hide below the gap for long.
spec = sample_branch(Lcg(2), "T1.2b")
bracket = grid_minimize(spec, 32)
print()
print("refining the bracket around theta =", minimize(build_objective(spec)).theta)
for _ in range(3):
    print(f"  G = {bracket.grid:4d}  gap = {bracket.gap}")
    bracket = grid_minimize(spec, 4 * bracket.grid)

# `verify` wires the same comparison into a deterministic report.
print()
main(["verify", "--samples", "9", "--seed", "3", "--grid", "64", "--identity-points", "1"])
