#!/usr/bin/env python3
"""Rebuild the headline results table: for each depth, the selected first
argument, the exactly-solved second argument, and digits-of-pi per term
(predicted, measured, published).

Depths 17 and 23 are reported with predicted rates only by default.
Pass --heavy to also solve depth 17 exactly (a second argument of about
312,000 digits), verify it and measure its rate; the whole run then takes
about 1.3 s on a 2-vCPU Xeon with Python 3.11.  Depth 23 stays predicted.
The depth-40 rate comes from the tower path, which needs no second term.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from machinpi.analysis import (
    KNOWN_DIGITS_PER_TERM,
    measure_convergence,
    validated_pi_reference,
)
from machinpi.exact import decimal_head, fraction_from_text
from machinpi.machin import second_term_text, MachinFormula
from machinpi.radicals import eval_radicals, select_u1
from machinpi.series import digits_per_term, pi_from_radicals, scale_for_digits

# (depth, denominator, rounding) triples of the published constructions.
# Depth 10 was truncated rather than rounded in the published table.
CONSTRUCTIONS = [
    (2, 10, "nearest"),
    (3, 1, "nearest"),
    (5, 1, "nearest"),
    (10, 1, "floor"),
    (17, 1, "nearest"),
    (23, 10, "nearest"),
]

HEAVY = {17, 23}
HEAVY_RUNNABLE = {17}  # depth 23 needs ~3e7-digit arithmetic; not a script job
MEASURED_DIGITS = 170


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--heavy", action="store_true",
                        help="also solve depth 17 exactly and measure its rate")
    parser.add_argument("--max-terms", type=int, default=16)
    args = parser.parse_args()

    # A row is measured only when rate * max_terms < MEASURED_DIGITS; the
    # measurement then needs up to rate * (max_terms + 1) + 8 digits.
    reference = validated_pi_reference(MEASURED_DIGITS + 30)
    print(f"{'k':>3} {'u1':>12} {'u2 (leading digits)':>28} "
          f"{'digits':>15} {'pred':>6} {'meas':>6} {'pub':>4}")
    for k, den, rounding in CONSTRUCTIONS:
        sel = select_u1(eval_radicals(k, 26), den, rounding)
        predicted = digits_per_term(sel.u1)
        if k in HEAVY and not (args.heavy and k in HEAVY_RUNNABLE):
            print(f"{k:3d} {str(sel.u1):>12} {'(not solved)':>28} "
                  f"{'-':>15} {predicted:6.2f} {'-':>6} "
                  f"{KNOWN_DIGITS_PER_TERM[k]:4d}")
            continue
        num, den = second_term_text(1 << (k - 1), sel.u1)
        formula = MachinFormula.two_term(k, sel.u1, fraction_from_text(num, den))
        formula.proof  # raises UnverifiedFormula unless the formula holds
        counts = f"{len(num.lstrip('-'))}/{len(den)}"
        measured = "-"
        if predicted * args.max_terms < MEASURED_DIGITS:
            report = measure_convergence(formula, args.max_terms, reference)
            measured = f"{report.measured_digits_per_term:6.2f}"
        print(f"{k:3d} {str(sel.u1):>12} {decimal_head(num, den):>28} "
              f"{counts:>15} {predicted:6.2f} {measured:>6} "
              f"{KNOWN_DIGITS_PER_TERM[k]:4d}")

    # tower path at depth 40: no second term needed at all
    result = pi_from_radicals(40, 6, scale_for_digits(200))
    print(f"\ntower path, depth 40: {result.per_term_log10:.2f} digits/term "
          f"measured over 6 terms (published: 24)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
