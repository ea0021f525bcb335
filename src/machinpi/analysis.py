"""Convergence measurement and method comparison.

"Correct digits" means the length of the longest common prefix of the
decimal expansions after the leading "3." against a reference constant
whose own digits were validated independently.  Per-term slope comes from
a least-squares fit over samples with at least three terms, skipping the
pre-asymptotic transient.

The measurement walks each conjugate series on plain integers; a sample
reads only pi's midpoint, so no error bound is carried.  The comparison's
Gregory and Euler series are exact rational partial sums, each with a
bound on its omitted tail; only the conjugate series it measures them
against runs at a working scale.
"""

from __future__ import annotations

import time
from collections.abc import Iterator
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import count

from .errors import InsufficientReference
from .machin import MAX_POWER_BITS, MachinFormula, solve_u2
from .realnum import FixedReal, _common_prefix_length, _div_nearest, _shift_nearest
from .series import (
    approx_log10,
    arctan_conjugate,
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
    series gaining `rate` digits per term; ValueError for more than
    MAX_POWER_BITS terms, before max_terms meets a float."""
    if max_terms > MAX_POWER_BITS:
        raise ValueError(f"max_terms must be at most {MAX_POWER_BITS}")
    return int(rate * (max_terms + 1)) + 8


def _least_squares_slope(points: list[tuple[int, int]]) -> float:
    n = len(points)
    if n < 2:
        return float("nan")
    sx = sum(p[0] for p in points)
    sy = sum(p[1] for p in points)
    sxx = sum(p[0] * p[0] for p in points)
    sxy = sum(p[0] * p[1] for p in points)
    return (n * sxy - sx * sy) / (n * sxx - sx * sx)


def _term_mantissas(beta: Fraction, s: int) -> Iterator[int]:
    """Mantissas at scale s of the terms -2 Im(v**(2m-1)) / (2m-1) of
    arctan(1/beta), v = (1 - 2ci)/(1 + 4c**2) for beta rounded to c, each
    step multiplying by r = v**2: every product and quotient is rounded to
    nearest, ties away from zero."""
    c = _div_nearest(beta.numerator << s, beta.denominator)
    d = (1 << s) + 4 * _shift_nearest(c * c, s)
    wr, wi = _div_nearest(1 << 2 * s, d), _div_nearest(-(2 * c) << s, d)
    rr = _shift_nearest(wr * wr, s) - _shift_nearest(wi * wi, s)
    ri = 2 * _shift_nearest(wr * wi, s)
    for m in count(1):
        yield _div_nearest(-2 * wi, 2 * m - 1)
        wr, wi = (_shift_nearest(wr * rr, s) - _shift_nearest(wi * ri, s),
                  _shift_nearest(wr * ri, s) + _shift_nearest(wi * rr, s))


def measure_convergence(formula: MachinFormula, max_terms: int,
                        reference_pi: FixedReal) -> ConvergenceReport:
    """Count correct digits of pi at each truncation 1..max_terms and fit
    the digits-per-term slope.

    One pass walks each arctangent's terms once (_term_mantissas),
    reading pi's midpoint off the running sums at every m.  The reference
    must out-resolve everything the run can produce, else
    InsufficientReference.
    """
    if max_terms < 1:
        raise ValueError("max_terms must be at least 1")
    u1 = min(abs(beta) for _, beta in formula.terms)
    predicted = digits_per_term(u1)
    ceiling = reference_digits(predicted, max_terms)
    ref_text, ok = reference_pi.to_decimal(ceiling)
    if not ok:
        raise InsufficientReference(
            f"reference pi resolves {len(ref_text.partition('.')[2])} digits; "
            f"the measurement could reach about {ceiling}"
        )
    scale = scale_for_digits(ceiling)
    t0 = time.perf_counter()
    streams = [_term_mantissas(beta, scale) for _, beta in formula.terms]
    sums = [0] * len(streams)
    samples: list[tuple[int, int]] = []
    for m in range(1, max_terms + 1):
        sums = [part + next(stream) for part, stream in zip(sums, streams)]
        total = sum(part * alpha for (alpha, _), part in zip(formula.terms, sums))
        text = FixedReal(total << 2, scale).to_decimal(ceiling)[0]
        samples.append((m, max(0, _common_prefix_length(text, ref_text) - 2)))
    elapsed = time.perf_counter() - t0
    fit_points = [p for p in samples if p[0] >= 3]
    slope = _least_squares_slope(fit_points if len(fit_points) >= 2 else samples)
    within = (
        slope == slope
        and predicted > 0  # 0.0 where log10(1 + 4 u1**2) cancels
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


def arctan_gregory(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """The alternating odd-power partial sum of `terms` terms for |x| < 1,
    exact, and the first omitted term, which bounds the tail."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise ValueError(f"|{x}| >= 1 diverges in the odd-power series")
    if terms < 1:
        raise ValueError("terms must be at least 1")
    total, p = Fraction(0), x
    for n in range(1, terms + 1):
        total += p / (2 * n - 1)
        p *= -x * x
    return total, abs(p) / (2 * terms + 1)


def arctan_euler(x: Fraction, terms: int) -> tuple[Fraction, Fraction]:
    """The all-positive partial sum of `terms` terms in q = x**2/(1+x**2),
    exact for every real x, and a bound on its tail.

    t_0 = x/(1+x**2) and t_(n+1) = t_n * q * 2(n+1)/(2n+3); the tail after
    the last term is at most |t_terms| / (1 - q) = |t_terms| (1 + x**2).
    """
    x = Fraction(x)
    if terms < 1:
        raise ValueError("terms must be at least 1")
    one_plus = 1 + x * x
    q = x * x / one_plus
    total, t = Fraction(0), x / one_plus
    for n in range(terms):
        total += t
        t *= q * Fraction(2 * (n + 1), 2 * n + 3)
    return total, abs(t) * one_plus


def compare_methods(
    x: Fraction, terms: int, scale: int
) -> list[tuple[str, Fraction]]:
    """Absolute truncation error of each series at equal term counts,
    measured against the conjugate-pair series run at four times the
    terms; both conjugate sums run at `scale`.  Errors are exact
    rationals (they can be far below float range)."""
    x = Fraction(x)
    if abs(x) >= 1:
        raise ValueError("comparison domain is |x| < 1")
    if x == 0:
        # arctan(0) = 0; every method is exact there.
        return [("gregory", Fraction(0)), ("euler", Fraction(0)), ("conjugate", Fraction(0))]
    reference = arctan_conjugate(x, 4 * terms, scale).value.value
    return [
        ("gregory", abs(arctan_gregory(x, terms)[0] - reference)),
        ("euler", abs(arctan_euler(x, terms)[0] - reference)),
        ("conjugate", abs(arctan_conjugate(x, terms, scale).value.value - reference)),
    ]


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
