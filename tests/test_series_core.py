"""The shared conjugate-series core against the loops it replaced.

Rational arguments, the tower value and the convergence measurement all
walk one term stream now; each must reproduce the former per-caller
loop bit for bit (tests/oracles.py keeps those loops as references).
"""

from __future__ import annotations

from fractions import Fraction

import pytest

from machinpi import analysis
from machinpi.analysis import KNOWN_DIGITS_PER_TERM, RATE_BAND, measure_convergence
from machinpi.cli import generate_record
from machinpi.machin import MachinFormula, solve_u2
from machinpi.series import arctan_conjugate, pi_from_radicals, scale_for_digits

from oracles import (
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


@pytest.mark.parametrize("terms", [1, 3, 12])
@pytest.mark.parametrize(
    "x", [Fraction(1, 2), Fraction(1, 5), Fraction(-1, 239), Fraction(2, 7), 10, 13],
    ids=["1/2", "1/5", "-1/239", "2/7", "1/u2@k10", "1/u2@k13"],
)
def test_rational_start_matches_fraction_start(x, terms, small_u2_arguments):
    if isinstance(x, int):
        x = small_u2_arguments[x]
    scale = 512
    got = fingerprint(arctan_conjugate(x, terms, scale))
    assert got == arctan_conjugate_reference(x, terms, scale)


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

    monkeypatch.setattr(analysis, "pi_from_formula", rebuild)
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
