from __future__ import annotations

from fractions import Fraction

import pytest

from machinpi import analysis
from machinpi.analysis import (
    KNOWN_DIGITS_PER_TERM,
    compare_methods,
    format_error,
    measure_convergence,
    validated_pi_reference,
)
from machinpi.errors import InsufficientReference
from machinpi.machin import MachinFormula
from machinpi.realnum import FixedReal
from machinpi.series import approx_log10, digits_per_term


class TestPredictRate:
    def test_reference_arguments(self):
        assert digits_per_term(Fraction(5)) == pytest.approx(2.0043, abs=1e-3)
        assert digits_per_term(Fraction(651)) == pytest.approx(6.2292, abs=1e-3)
        assert digits_per_term(Fraction(53403537, 10)) == pytest.approx(14.057, abs=1e-2)

    def test_heavy_depths_without_solving(self):
        # Published per-term rates at the depths whose second terms are
        # too large to solve routinely.
        assert round(digits_per_term(Fraction(83443))) == 10
        assert round(digits_per_term(Fraction(53403537, 10))) == 14

    def test_published_rate_list_within_one_digit(self):
        published_u1 = {
            2: Fraction(12, 5),
            3: Fraction(5),
            5: Fraction(20),
            10: Fraction(651),
            17: Fraction(83443),
            23: Fraction(53403537, 10),
        }
        for k, u1 in published_u1.items():
            assert abs(round(digits_per_term(u1)) - KNOWN_DIGITS_PER_TERM[k]) <= 1

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            digits_per_term(Fraction(0))
        with pytest.raises(ValueError, match="approx_log10 needs a positive value"):
            approx_log10(Fraction(0))


class TestMeasureConvergence:
    def test_depth_three_slope(self, machin_formula, pi_reference_300):
        report = measure_convergence(machin_formula, 20, pi_reference_300)
        assert report.measured_digits_per_term == pytest.approx(2.0, abs=0.35)
        assert report.rate_within_band

    def test_depth_ten_slope(self, k10_formula, pi_reference_300):
        report = measure_convergence(k10_formula, 20, pi_reference_300)
        assert report.measured_digits_per_term == pytest.approx(6.23, abs=0.9)

    def test_single_term_slope(self, pi_reference_300):
        formula = MachinFormula.single(Fraction(1), Fraction(1))
        report = measure_convergence(formula, 25, pi_reference_300)
        assert report.measured_digits_per_term == pytest.approx(0.699, abs=0.12)

    def test_samples_non_decreasing(self, machin_formula, pi_reference_300):
        report = measure_convergence(machin_formula, 15, pi_reference_300)
        digits = [d for _, d in report.samples]
        assert digits == sorted(digits)
        assert report.wall_time_per_term > 0

    def test_negative_coefficient_matches_negated_cotangent(self, pi_reference_300):
        # -arctan(1/239) = arctan(1/-239): the integer scale and the
        # rounded term stream agree sample for sample.
        by_alpha = measure_convergence(MachinFormula(((4, 5), (-1, 239))), 12, pi_reference_300)
        by_beta = measure_convergence(MachinFormula(((4, 5), (1, -239))), 12, pi_reference_300)
        assert by_alpha.samples == by_beta.samples
        assert by_alpha.samples[-1][1] > 20

    def test_cancelled_prediction_is_out_of_band(self, pi_reference_300):
        # u1 = 1e-8 predicts log10(1 + 4e-16), which cancels to 0.0.
        tiny = Fraction(1, 10 ** 8)
        formula = MachinFormula(((1, tiny), (-1, 1), (1, 1), (-1, tiny), (1, 1)))
        report = measure_convergence(formula, 10, pi_reference_300)
        assert report.predicted_digits_per_term == 0.0
        assert not report.rate_within_band

    def test_insufficient_reference_rejected(self, k10_formula):
        shallow = FixedReal.from_fraction(Fraction(314159, 100000), 64).widened(1)
        # 3.14159 is not dyadic, so the lower end reads 3.14158...: the
        # message names the 4 places both ends agree on.
        with pytest.raises(InsufficientReference, match="resolves 4 digits"):
            measure_convergence(k10_formula, 20, shallow)


class TestCompareMethods:
    def test_full_ordering_at_half(self):
        rows = dict(compare_methods(Fraction(1, 2), 10, 512))
        assert rows["conjugate"] < rows["euler"] < rows["gregory"]

    @pytest.mark.parametrize("x", [Fraction(1, 5), Fraction(1, 239)])
    def test_conjugate_series_dominates(self, x):
        rows = dict(compare_methods(x, 10, 512))
        assert rows["conjugate"] < rows["euler"]
        assert rows["conjugate"] < rows["gregory"]

    def test_gap_grows_as_argument_shrinks(self):
        rows = dict(compare_methods(Fraction(1, 239), 5, 512))
        gap = approx_log10(rows["euler"]) - approx_log10(rows["conjugate"])
        assert gap >= 3

    def test_zero_argument_exact_everywhere(self):
        rows = dict(compare_methods(Fraction(0), 10, 256))
        assert all(err == 0 for err in rows.values())

    def test_domain_limited(self):
        with pytest.raises(ValueError):
            compare_methods(Fraction(3, 2), 10, 256)

    def test_format_error_handles_tiny_magnitudes(self):
        assert format_error(Fraction(0)) == "0"
        rendered = format_error(Fraction(1, 10 ** 500))
        assert "e-500" in rendered or "e-499" in rendered


class TestReference:
    def test_validated_reference_matches_fixture(self, pi_text_300):
        ref = validated_pi_reference(120)
        text, ok = ref.to_decimal(120)
        assert ok and text == pi_text_300[:122]

    def test_disagreeing_references_rejected(self, monkeypatch):
        # The depth-5 reference reads 3.14259... instead of 3.14159...
        real = analysis.pi_digits_from_formula

        def depth_five_off(formula, digits):
            text, result = real(formula, digits)
            if formula.terms[0][1] == 20:
                text = text[:4] + "2" + text[5:]
            return text, result

        monkeypatch.setattr(analysis, "pi_digits_from_formula", depth_five_off)
        with pytest.raises(InsufficientReference,
                           match="^independent pi references disagree within 10 digits$"):
            validated_pi_reference(10)
