"""
Parameter sweeps from the command line
======================================

The `widthcalc` entry point wraps the library for shell use.  Sweeps
write CSV with exact rational exponent columns next to a decimal render,
so the output diffs cleanly and plots directly.
"""

from widthcalc.cli import main

# One spec, full report.  Exit codes classify the outcome: 0 covered,
# 2 not compact, 3 uncovered or an exact tie, 4 bad input.
print("$ widthcalc exponent --r 1,2 --p 3,3/2 --q 2 --check")
main(["exponent", "--r", "1,2", "--p", "3,3/2", "--q", "2", "--check"])

# Sweeping q across the covered range; the regime column tracks the
# closed-form branch as q crosses the structural thresholds.
print()
print("$ widthcalc sweep --r 1,2 --p 3,3/2 --q 2 --vary q --from 3/2 --to 4 --steps 6")
main(["sweep", "--r", "1,2", "--p", "3,3/2", "--q", "2",
      "--vary", "q", "--from", "3/2", "--to", "4", "--steps", "6"])

# Sweeping the budget n for one dyadic block profile.
print()
print("$ widthcalc sweep --r 1,2 --p 3,3/2 --q 4 --vary n --m-vec 3,2 --from 8 --to 16 --steps 3")
main(["sweep", "--r", "1,2", "--p", "3,3/2", "--q", "4",
      "--vary", "n", "--m-vec", "3,2", "--from", "8", "--to", "16", "--steps", "3"])

# The randomized cross-check behind the acceptance gate, in miniature.
print()
print("$ widthcalc verify --samples 9 --seed 42")
main(["verify", "--samples", "9", "--seed", "42"])
