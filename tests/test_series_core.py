"""The shared conjugate-series core against the loops it replaced.

Rational arguments with huge numerators, the tower value and the
convergence measurement all walk one fixed-point term stream started by
one builder, _cot_start.  The tower and the convergence samples must
reproduce their former loops bit for bit (tests/oracles.py keeps those
loops as references); the rational stream, started from a rounded
cotangent instead of a start formed from reduced Fractions, must give the
reference's mantissa and rate within 3 ulps more of error bound.  Other
rational arguments are summed exactly by binary splitting, which must
agree with the reference loop within both error bounds, never claim a
wider bound, and contain an independent bracket of the true arctangent.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import given
from hypothesis import strategies as st

from machinpi import analysis, series
from machinpi.analysis import KNOWN_DIGITS_PER_TERM, RATE_BAND, measure_convergence
from machinpi.cli import generate_record
from machinpi.machin import MachinFormula, solve_u2
from machinpi.realnum import FixedReal
from machinpi.series import (
    _conjugate_sum,
    _cot_start,
    arctan_conjugate,
    digits_per_term,
    pi_digits_from_formula,
    pi_from_radicals,
    scale_for_digits,
)

from oracles import (
    arctan_bracket,
    arctan_conjugate_reference,
    convergence_samples_reference,
    pi_from_radicals_reference,
)


def fingerprint(result):
    return (result.value.mantissa, result.value.err_ulp, result.terms_used,
            result.per_term_log10)


@pytest.fixture(scope="module")
def small_u2_arguments():
    """1/u2 at depths 10 and 13: second arguments of 1,364 and about
    15,000 digits."""
    return {k: 1 / solve_u2(u1, k) for k, u1 in ((10, Fraction(651)), (13, Fraction(5215)))}


@lru_cache(maxsize=None)
def bracket_at_512(x):
    """arctan(x) to a quarter ulp at scale 512.  A huge-component x is
    first replaced by a dyadic x' within 2**-600 of it, and |x - x'|
    joins the bound (arctan is 1-Lipschitz)."""
    near = x
    if max(x.numerator.bit_length(), x.denominator.bit_length()) > 600:
        near = Fraction(round(x * (1 << 600)), 1 << 600)
    mid, bound = arctan_bracket(near, Fraction(1, 1 << 515))
    return mid, bound + abs(x - near)


@pytest.mark.parametrize("terms", [1, 3, 12])
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(1, 5), Fraction(-1, 239), Fraction(2, 7), 10, 13],
    ids=["1/2", "1/5", "-1/239", "2/7", "1/u2@k10", "1/u2@k13"],
)
def test_cot_start_stream_matches_fraction_start(x, terms, small_u2_arguments):
    if isinstance(x, int):
        x = small_u2_arguments[x]
    scale = 512
    a, b = x.numerator, x.denominator
    rho = Fraction(a * a, a * a + 4 * b * b)
    got = _conjugate_sum(_cot_start(FixedReal.from_fraction(1 / x, scale)), rho, terms)
    mantissa, err_ulp, used, rate = arctan_conjugate_reference(x, terms, scale)
    assert (got.value.mantissa, got.terms_used, got.per_term_log10) == (mantissa, used, rate)
    assert got.value.err_ulp <= err_ulp + 3
    mid, bound = bracket_at_512(x)
    assert got.value.lower <= mid - bound and mid + bound <= got.value.upper


cotangents = st.builds(
    lambda c, negative: -c if negative else c,
    st.fractions(min_value=Fraction(1, 2), max_value=10 ** 12, max_denominator=10 ** 12),
    st.booleans(),
)


@given(cotangents, st.integers(min_value=8, max_value=400))
def test_cot_start_contains_exact_start(c, scale):
    d = 1 + 4 * c * c
    exact = (1 / d, -2 * c / d, (1 - 4 * c * c) / (d * d), -4 * c / (d * d))
    start = _cot_start(FixedReal.from_fraction(c, scale))
    assert all(part.contains(value) for part, value in zip(start, exact))


def test_every_stream_starts_from_cot_start(monkeypatch, machin_formula, pi_reference_300):
    starts = []

    def spy(c):
        starts.append(c)
        return _cot_start(c)

    monkeypatch.setattr(series, "_cot_start", spy)
    monkeypatch.setattr(analysis, "_cot_start", spy)
    pi_from_radicals(3, 4, 256)
    assert len(starts) == 1
    arctan_conjugate(Fraction(1, 5), 200, 256)  # 2 * 200 * bits(1) > 256: streams
    assert starts[1:] == [FixedReal.from_fraction(Fraction(5), 256)]
    measure_convergence(machin_formula, 3, pi_reference_300)
    assert [c.value for c in starts[2:]] == [Fraction(5), Fraction(-239)]


@pytest.mark.parametrize("x", [Fraction(2 ** 600 + 1, 3), Fraction(5 << 512, 6)],
                         ids=["c=0+-1ulp", "c=1+-1ulp"])
def test_cotangent_rounding_to_zero_keeps_exact_rho(x, pi_reference_300):
    # b/a = 3/(2**600 + 1) rounds to 0 at scale 512 and 6/(5 * 2**512) to
    # 1 ulp, so c's interval reaches 0 and a rho taken from it would be 1;
    # the exact rho still gives a valid (wide) interval.
    value = arctan_conjugate(x, 5, 512).value
    # pi/2 - 1/x <= arctan(x) < pi/2
    assert value.lower <= pi_reference_300.lower / 2 - 1 / x
    assert pi_reference_300.upper / 2 <= value.upper


SPLIT_SCALE = 3328  # 2 * 805 terms * bits(2) = 3220 fits: every case splits


@lru_cache(maxsize=None)
def bracket(x):
    """arctan(x) to a quarter ulp at SPLIT_SCALE."""
    return arctan_bracket(x, Fraction(1, 1 << (SPLIT_SCALE + 2)))


@pytest.mark.parametrize("terms", [1, 2, 3, 12, 805])
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(1, 5), Fraction(-1, 239), Fraction(2, 7), Fraction(1, 651)],
    ids=["1/2", "1/5", "-1/239", "2/7", "1/651"],
)
def test_split_sum_agrees_with_reference_loop(x, terms, monkeypatch):
    def no_stream(*args):
        raise AssertionError("small argument took the fixed-point stream")

    monkeypatch.setattr(series, "_conjugate_sum", no_stream)
    split = arctan_conjugate(x, terms, SPLIT_SCALE)
    mantissa, err_ulp, used, _ = arctan_conjugate_reference(x, terms, SPLIT_SCALE)
    value = split.value
    assert used == split.terms_used == terms
    assert value.scale == SPLIT_SCALE
    assert value.mantissa - value.err_ulp <= mantissa + err_ulp
    assert mantissa - err_ulp <= value.mantissa + value.err_ulp
    assert value.err_ulp <= err_ulp
    mid, bound = bracket(x)
    assert value.lower <= mid - bound and mid + bound <= value.upper


def exact_term(x, m):
    """-2 Im(v**(2m-1)) / (2m-1) for v = x/(x + 2i), from Fractions."""
    a, b = x.numerator, x.denominator
    d = a * a + 4 * b * b
    vr, vi = Fraction(a * a, d), Fraction(-2 * a * b, d)
    wr, wi = vr, vi
    for _ in range(2 * m - 2):
        wr, wi = wr * vr - wi * vi, wr * vi + wi * vr
    return -2 * wi / (2 * m - 1)


@pytest.mark.parametrize("terms", [2, 12])
@pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(2, 7), Fraction(-1, 239)])
def test_split_rate_measured_from_exact_terms(x, terms):
    first, last = exact_term(x, 1), exact_term(x, terms)
    expected = (math.log10(abs(first)) - math.log10(abs(last))) / (terms - 1)
    rate = arctan_conjugate(x, terms, 512).per_term_log10
    assert rate == pytest.approx(expected, rel=1e-12)
    # measured, not the prediction: the 1/(2m-1) factors shift it
    assert abs(rate - digits_per_term(1 / x)) > 0.01


@pytest.mark.parametrize("k, u1, digits, second_terms", [
    (10, 651, 5000, 768),   # floor u1: u2 ~ -922.9 with 1,364-digit parts
    (14, 10430, 1000, 106),  # u2 with about 32,000-digit parts
])
def test_huge_second_argument_streams_with_own_budget(
    k, u1, digits, second_terms, monkeypatch, pi_text_300
):
    formula = MachinFormula.two_term(k, Fraction(u1), solve_u2(Fraction(u1), k))
    streamed = []

    def spy(c):
        streamed.append(c)
        return _cot_start(c)

    monkeypatch.setattr(series, "_cot_start", spy)
    text, result = pi_digits_from_formula(formula, digits)
    assert len(streamed) == 1 and streamed[0].contains(formula.terms[1][1])
    assert result.term_counts == (result.terms_used, second_terms)
    assert text.startswith(pi_text_300)


@pytest.mark.parametrize("k, terms, digits", [(2, 30, 50), (3, 12, 40), (40, 6, 170)])
def test_tower_matches_its_former_loop(k, terms, digits):
    scale = scale_for_digits(digits)
    got = fingerprint(pi_from_radicals(k, terms, scale))
    assert got == pi_from_radicals_reference(k, terms, scale)


@pytest.mark.parametrize("k, den", [(2, 10), (3, 1), (5, 1), (10, 1)])
def test_one_pass_samples_match_per_truncation_rebuild(k, den, pi_reference_300):
    formula = generate_record(k, den, "nearest")[0].formula()
    report = measure_convergence(formula, 40, pi_reference_300)
    assert report.samples == convergence_samples_reference(formula, 40, pi_reference_300)


def test_one_pass_samples_single_term_formula(pi_reference_300):
    formula = MachinFormula.single(Fraction(1), Fraction(1))
    report = measure_convergence(formula, 40, pi_reference_300)
    assert report.samples == convergence_samples_reference(formula, 40, pi_reference_300)


def test_measurement_never_rebuilds_pi(monkeypatch, machin_formula, pi_reference_300):
    def rebuild(*args, **kwargs):
        raise AssertionError("measure_convergence re-evaluated pi_from_formula")

    monkeypatch.setattr(series, "pi_from_formula", rebuild)
    report = measure_convergence(machin_formula, 20, pi_reference_300)
    assert len(report.samples) == 20


def test_depth_seventeen_rate_measured(pi_reference_300):
    # The published ~10 digits per term at depth 17, counted against the
    # reference rather than predicted (measured 10.53, predicted 10.44);
    # the second argument has about 312,000 digits.
    u1 = Fraction(83443)
    formula = MachinFormula.two_term(17, u1, solve_u2(u1, 17))
    report = measure_convergence(formula, 20, pi_reference_300)
    assert report.k == 17
    assert abs(report.measured_digits_per_term - KNOWN_DIGITS_PER_TERM[17]) < 1
    assert abs(report.measured_digits_per_term - report.predicted_digits_per_term) \
        < RATE_BAND * report.predicted_digits_per_term
    assert report.samples[-1][1] >= 200
