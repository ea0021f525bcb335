"""Convergence measurement and method comparison.

"Correct digits" means the length of the longest common prefix of the
decimal expansions after the leading "3." against a reference constant
whose own digits were validated independently.  Per-term slope comes from
a least-squares fit over samples with at least three terms, skipping the
pre-asymptotic transient.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import InsufficientReference
from .machin import MachinFormula, solve_u2
from .realnum import FixedReal
from .series import (
    _conjugate_terms,
    _cot_start,
    approx_log10,
    arctan_conjugate,
    arctan_euler,
    arctan_gregory,
    digits_per_term,
    pi_digits_from_formula,
    scale_for_digits,
)

# Band within which the measured slope is expected to sit relative to the
# predicted one once past the transient; outside it the report is flagged
# but not rejected.
RATE_BAND = 0.15

# Published digits-per-term for the reference constructions at each depth.
KNOWN_DIGITS_PER_TERM = {2: 1, 3: 2, 5: 3, 10: 6, 17: 10, 23: 14}


@dataclass
class ConvergenceReport:
    u1: Fraction
    measured_digits_per_term: float
    predicted_digits_per_term: float
    samples: list[tuple[int, int]] = field(default_factory=list)
    wall_time_per_term: float = 0.0
    rate_within_band: bool = True


def reference_digits(rate: float, max_terms: int) -> int:
    """Digits a reference pi must resolve to score max_terms terms of a
    series gaining `rate` digits per term."""
    return int(rate * (max_terms + 1)) + 8


def _common_prefix_digits(sample: str, reference: str) -> int:
    """Matching digit count after the '3.'; both strings look like 3.14159..."""
    n = 0
    for a, b in zip(sample, reference):
        if a != b:
            break
        if a not in ".-":
            n += 1
    return max(0, n - 1)  # drop the leading "3"


def _least_squares_slope(points: list[tuple[int, int]]) -> float:
    n = len(points)
    if n < 2:
        return float("nan")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def measure_convergence(formula: MachinFormula, max_terms: int,
                        reference_pi: FixedReal) -> ConvergenceReport:
    """Count correct digits of pi at each truncation 1..max_terms and fit
    the digits-per-term slope.

    One pass walks each arctangent's terms once, reading pi's midpoint off
    the running sums at every m.  The reference must out-resolve
    everything the run can produce, else InsufficientReference.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    u1 = min(abs(beta) for _, beta in formula.terms)
    predicted = digits_per_term(u1)
    ceiling = reference_digits(predicted, max_terms)
    ref_digits = reference_pi.valid_decimal_digits(ceiling)
    if ref_digits < ceiling:
        raise InsufficientReference(
            f"reference pi resolves {ref_digits} digits; the measurement "
            f"could reach about {ceiling}"
        )
    ref_text, ok = reference_pi.to_decimal(ref_digits)
    assert ok
    scale = scale_for_digits(ceiling)
    t0 = time.perf_counter()
    streams = [_conjugate_terms(*_cot_start(FixedReal.from_fraction(beta, scale)))
               for _, beta in formula.terms]
    sums = [FixedReal.zero(scale)] * len(streams)
    samples: list[tuple[int, int]] = []
    for m in range(1, max_terms + 1):
        sums = [part + next(stream) for part, stream in zip(sums, streams)]
        total = FixedReal.zero(scale)
        for (alpha, _), part in zip(formula.terms, sums):
            total = total + part.mul_fraction(alpha)
        text, _ = total.shift(2).to_decimal(ref_digits)
        samples.append((m, _common_prefix_digits(text, ref_text)))
    elapsed = time.perf_counter() - t0
    fit_points = [p for p in samples if p[0] >= 3]
    slope = _least_squares_slope(fit_points if len(fit_points) >= 2 else samples)
    within = (
        slope == slope
        and abs(slope - predicted) / predicted < RATE_BAND
    )
    return ConvergenceReport(
        u1=u1,
        measured_digits_per_term=slope,
        predicted_digits_per_term=predicted,
        samples=samples,
        wall_time_per_term=elapsed / max_terms,
        rate_within_band=within,
    )


def compare_methods(
    x: Fraction, terms: int, scale: int
) -> list[tuple[str, Fraction]]:
    """Absolute truncation error of each series at equal term counts,
    measured against the conjugate-pair series run at four times the
    terms.  Errors are exact rationals (they can be far below float
    range)."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise ValueError("comparison domain is |x| < 1")
    if x == 0:
        # arctan(0) = 0; every method is exact there.
        return [("gregory", Fraction(0)), ("euler", Fraction(0)), ("conjugate", Fraction(0))]
    reference = arctan_conjugate(x, 4 * terms, scale).value.value
    rows = []
    for name, fn in (
        ("gregory", arctan_gregory),
        ("euler", arctan_euler),
        ("conjugate", arctan_conjugate),
    ):
        rows.append((name, abs(fn(x, terms, scale).value.value - reference)))
    return rows


def format_error(err: Fraction) -> str:
    """Render an error magnitude as ~1.23e-45 without float underflow."""
    if err == 0:
        return "0"
    lg = approx_log10(err)
    exp = int(lg // 1)
    mantissa = 10.0 ** (lg - exp)
    return f"{mantissa:.2f}e{exp:+d}"


def validated_pi_reference(digits: int) -> FixedReal:
    """pi validated to at least `digits` decimals by two structurally
    independent two-term formulas (depth-3 and depth-5 constructions),
    each certified to digits + 4 places; their expansions must agree
    digit for digit."""
    f_a = MachinFormula.two_term(3, Fraction(5), solve_u2(Fraction(5), 3))
    f_b = MachinFormula.two_term(5, Fraction(20), solve_u2(Fraction(20), 5))
    text_a, ref_a = pi_digits_from_formula(f_a, digits + 4)
    text_b, _ = pi_digits_from_formula(f_b, digits + 4)
    if text_a[:digits + 2] != text_b[:digits + 2]:
        raise InsufficientReference(
            f"independent pi references disagree within {digits} digits"
        )
    return ref_a.value
