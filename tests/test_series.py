from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from machinpi import cli, exact, machin, series
from machinpi.analysis import arctan_euler, arctan_gregory
from machinpi.errors import PrecisionExhausted, UnverifiedFormula
from machinpi.machin import MachinFormula, solve_u2
from machinpi.realnum import FixedReal
from machinpi.series import (
    SeriesResult,
    _radical_rate,
    approx_log10,
    arctan_conjugate,
    digits_per_term,
    pi_digits_from_formula,
    pi_digits_from_radicals,
    pi_from_formula,
    pi_from_radicals,
    scale_for_digits,
    terms_for_digits,
)

from oracles import arctan_bracket, conjugate_rate_reference, cot_tower_digits
from oracles import digits_per_term as digits_per_term_from_fractions

# Second arguments with 1,364-digit (depth 10, floor u1) and about
# 32,000-digit (depth 14) parts.
U2_K10 = solve_u2(Fraction(651), 10)
U2_K14 = solve_u2(Fraction(10430), 14)


def abs_error(series_value, reference: Fraction) -> Fraction:
    return abs(series_value.value.value - reference)


@pytest.fixture(scope="module")
def atan_fifth_ref() -> Fraction:
    return arctan_bracket(Fraction(1, 5), Fraction(1, 10 ** 80))[0]


class TestGregory:
    def test_zero_argument(self):
        assert arctan_gregory(Fraction(0), 5) == (0, 0)

    def test_three_term_hand_sum(self):
        # 1/2 - 1/24 + 1/160 exactly
        total, tail = arctan_gregory(Fraction(1, 2), 3)
        assert total == Fraction(223, 480) and tail == Fraction(1, 2 ** 7 * 7)

    def test_divergent_argument_rejected(self):
        with pytest.raises(ValueError, match=r"^\|1\| >= 1 diverges"):
            arctan_gregory(Fraction(1), 3)
        with pytest.raises(ValueError, match=r"^\|-7/5\| >= 1 diverges"):
            arctan_gregory(Fraction(-7, 5), 3)

    def test_needs_a_term(self):
        with pytest.raises(ValueError, match="at least 1"):
            arctan_gregory(Fraction(1, 2), 0)

    def test_agrees_with_conjugate_series_to_forty_digits(self, atan_fifth_ref):
        total, _ = arctan_gregory(Fraction(1, 5), 30)
        assert abs(total - atan_fifth_ref) < Fraction(1, 10 ** 40)

    def test_result_interval_honest(self, atan_fifth_ref):
        for terms in (3, 8, 20):
            total, tail = arctan_gregory(Fraction(1, 5), terms)
            assert abs(total - atan_fifth_ref) <= tail


class TestEuler:
    def test_zero_argument(self):
        assert arctan_euler(Fraction(0), 4) == (0, 0)

    def test_converges_to_quarter_turn_at_one(self):
        ref = arctan_conjugate(Fraction(1), 60, 512)
        total, tail = arctan_euler(Fraction(1), 120)
        assert abs(total - ref.value.value) < Fraction(1, 10 ** 30)
        # the tail shrinks by about 1/2 per term: about 0.30 digits each
        assert arctan_euler(Fraction(1), 121)[1] / tail == pytest.approx(0.5, abs=0.01)

    def test_needs_a_term(self):
        with pytest.raises(ValueError, match="at least 1"):
            arctan_euler(Fraction(2), 0)

    def test_truncation_dominated_by_conjugate_series(self, atan_fifth_ref):
        at_terms = 10
        e = abs(arctan_euler(Fraction(1, 5), at_terms)[0] - atan_fifth_ref)
        c = abs_error(arctan_conjugate(Fraction(1, 5), at_terms, 512), atan_fifth_ref)
        assert c < e

    def test_result_interval_honest(self, atan_fifth_ref):
        for terms in (2, 9):
            total, tail = arctan_euler(Fraction(1, 5), terms)
            assert abs(total - atan_fifth_ref) <= tail


class TestConjugateSeries:
    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError, match="needs a nonzero argument"):
            arctan_conjugate(Fraction(0), 3, 64)

    def test_quarter_turn_against_classic_combination(self):
        # arctan(1) = 4*arctan(1/5)... shifted: check pi/4 both ways instead
        direct = arctan_conjugate(Fraction(1), 40, 512).value
        composed = (
            arctan_conjugate(Fraction(1, 5), 40, 512).value.shift(2)
            - arctan_conjugate(Fraction(1, 239), 40, 512).value
        )
        assert abs(direct.mantissa - composed.mantissa) <= direct.err_ulp + composed.err_ulp

    def test_error_contracts_by_hundredfold_at_fifth(self, atan_fifth_ref):
        e2 = abs_error(arctan_conjugate(Fraction(1, 5), 2, 256), atan_fifth_ref)
        e3 = abs_error(arctan_conjugate(Fraction(1, 5), 3, 256), atan_fifth_ref)
        # Envelope contraction is 1 + 4*25 = 101 per term; the measured
        # step (162) is a bit stronger thanks to the 1/(2m-1) coefficients.
        assert 100 < e2 / e3 < 250

    def test_monotone_truncation(self, atan_fifth_ref):
        errors = [
            abs_error(arctan_conjugate(Fraction(1, 5), m, 256), atan_fifth_ref)
            for m in range(1, 9)
        ]
        assert all(a > b for a, b in zip(errors, errors[1:]))

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(1, 5), Fraction(1, 239)])
    def test_measured_rate_tracks_prediction(self, x):
        r = arctan_conjugate(x, 12, 512)
        predicted = approx_log10(1 + 4 / x ** 2)
        assert abs(r.per_term_log10 - predicted) / predicted < 0.15

    # The reported rate reads |z|**2 off 64-bit heads of z's parts; a
    # Fraction sum of the first and last terms gives the same float.
    @pytest.mark.parametrize("m, terms", [(5, 50), (239, 30), ((1 << 399) + 12345, 6)],
                             ids=["5", "239", "400-bit"])
    def test_measured_rate_matches_fraction_terms(self, m, terms):
        rate = arctan_conjugate(Fraction(1, m), terms, 256).per_term_log10
        assert abs(rate - conjugate_rate_reference(m, terms)) < 1e-12

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-1, 3), Fraction(2, 7)])
    def test_result_interval_honest(self, x):
        mid, bound = arctan_bracket(x, Fraction(1, 10 ** 70))
        for terms in (1, 3, 9):
            r = arctan_conjugate(x, terms, 224)
            assert r.value.lower - bound <= mid <= r.value.upper + bound

    def test_negative_argument_is_odd(self):
        plus = arctan_conjugate(Fraction(1, 7), 9, 192).value
        minus = arctan_conjugate(Fraction(-1, 7), 9, 192).value
        assert plus.value == -minus.value

    @given(
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                     max_denominator=40),
        st.fractions(min_value=Fraction(-1, 2), max_value=Fraction(1, 2),
                     max_denominator=40),
    )
    def test_addition_identity(self, c, d):
        assume(c != 0 and d != 0)
        combined = (c + d) / (1 - c * d)
        assume(combined != 0)
        scale = 224
        lhs = arctan_conjugate(c, 14, scale).value + arctan_conjugate(d, 14, scale).value
        rhs = arctan_conjugate(combined, 26, scale).value
        assert abs(lhs.mantissa - rhs.mantissa) <= lhs.err_ulp + rhs.err_ulp

    def test_cross_method_agreement(self):
        for x in (Fraction(1, 2), Fraction(1, 5), Fraction(1, 239)):
            c = arctan_conjugate(x, 40, 512).value
            for total, tail in (arctan_gregory(x, 40), arctan_euler(x, 40)):
                assert c.lower - tail <= total <= c.upper + tail


class TestPiFromFormula:
    def test_classic_formula_eighty_digits(self, machin_formula, pi_text_300):
        r = pi_from_formula(machin_formula, 40, 1024)
        text, ok = r.value.to_decimal(80)
        assert ok and text == pi_text_300[: len(text)]

    def test_single_term_single_shot(self):
        r = pi_from_formula(MachinFormula.single(Fraction(1), Fraction(1)), 1, 96)
        assert r.value.lower <= Fraction(16, 5) <= r.value.upper
        assert r.terms_used == 1

    def test_depth_ten_formula_hundred_digits(self, k10_formula, pi_text_300):
        r = pi_from_formula(k10_formula, 20, scale_for_digits(130))
        text, ok = r.value.to_decimal(100)
        assert ok and text == pi_text_300[: len(text)]

    def test_unverified_formula_rejected(self):
        broken = MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(239))))
        for _ in range(2):  # a failed proof is not kept: it fails again
            with pytest.raises(UnverifiedFormula, match="^exact product check failed"):
                pi_from_formula(broken, 5, 128)

    def test_integer_coefficients_scale_bounds_exactly(self, monkeypatch, machin_formula):
        # 4 * sum alpha * arctan is formed on integers: no rounding ulp.
        inverse, parts = series._arctan_inverse, []

        def spy(*args):
            parts.append(inverse(*args))
            return parts[-1]

        monkeypatch.setattr(series, "_arctan_inverse", spy)
        got = pi_from_formula(machin_formula, 20, 256).value
        pairs = [(alpha, part.value) for (alpha, _), part in zip(machin_formula.terms, parts)]
        assert got.mantissa == 4 * sum(a * v.mantissa for a, v in pairs)
        assert got.err_ulp == 4 * sum(abs(a) * v.err_ulp for a, v in pairs)

    def test_non_integer_coefficient_refused_when_vouched_for(self):
        # A fractional alpha must not be truncated or rounded into the
        # sum: no such formula can be built, proved or not.
        with pytest.raises(ValueError, match="coefficients must be integers"):
            MachinFormula.single(Fraction(1, 2), Fraction(1))

    def test_digit_target_driver(self, machin_formula, pi_text_300):
        text, result = pi_digits_from_formula(machin_formula, 120)
        assert text == pi_text_300[:122]
        assert result.terms_used >= 60

    def test_term_budget_prints_certified_prefix(self, machin_formula, pi_text_300):
        text, result = pi_digits_from_formula(machin_formula, terms=30)
        assert pi_text_300.startswith(text) and len(text) > 50
        assert result.term_counts == (30, 13)

    @pytest.mark.parametrize("exponent", [8, 40])
    def test_tiny_cotangent_has_a_budget(self, exponent, pi_text_300):
        # log10(1 + 4 beta**2) cancels to 0.0 for |beta| <= 1e-8, but
        # every chain link gains at least 2 log10(2) digits a term.
        tiny = Fraction(1, 10 ** exponent)
        formula = MachinFormula(((1, tiny), (-1, 1), (1, 1), (-1, tiny), (1, 1)))
        for digits in (30, 300):
            text, result = pi_digits_from_formula(formula, digits)
            assert text == pi_text_300[:digits + 2]
            assert result.terms_used == terms_for_digits(digits, 2 * math.log10(2))

    @pytest.mark.parametrize("budget", [{}, {"digits": 10, "terms": 5},
                                        {"digits": 0}, {"terms": 0}])
    def test_needs_exactly_one_positive_budget(self, machin_formula, budget):
        with pytest.raises(ValueError):
            pi_digits_from_formula(machin_formula, **budget)


class TestCertifiedPiRetries:
    """A digit target that the first run cannot certify is run again with
    3 more terms and 128, 256, 512, 1024 more bits of scale, at most four
    times, then PrecisionExhausted (exit 5 from the CLI)."""

    # The first run of 50 digits from 4 arctan(1/5) - arctan(1/239), whose
    # slowest arctangent is arctan(1/5).
    FIRST = (terms_for_digits(50, digits_per_term(Fraction(5))), scale_for_digits(50))

    @staticmethod
    def uncertain_until(attempt, calls):
        # Pi from the formula, widened by 1 until the given attempt.
        def evaluate(formula, terms, scale):
            calls.append((terms, scale))
            result = pi_from_formula(formula, terms, scale)
            if len(calls) < attempt:
                return dataclasses.replace(result, value=result.value.widened(1 << scale))
            return result
        return evaluate

    def test_second_run_certifies(self, monkeypatch, machin_formula, pi_text_300):
        calls = []
        monkeypatch.setattr(series, "pi_from_formula", self.uncertain_until(2, calls))
        text, _ = pi_digits_from_formula(machin_formula, 50)
        assert text == pi_text_300[:52]
        terms, scale = self.FIRST
        assert calls == [(terms, scale), (terms + 3, scale + 128)]

    def test_retry_proves_the_formula_once(self, monkeypatch, pi_text_300):
        # A formula not yet proved is proved by verify_formula before the
        # first run; the retry finds that proof kept on the formula.
        formula = MachinFormula.two_term(3, Fraction(5), Fraction(-239))
        verify, proofs = machin.verify_formula, []
        monkeypatch.setattr(machin, "verify_formula",
                            lambda f: proofs.append(f) or verify(f))
        calls = []
        monkeypatch.setattr(series, "pi_from_formula", self.uncertain_until(2, calls))
        text, _ = pi_digits_from_formula(formula, 50)
        assert text == pi_text_300[:52]
        assert len(calls) == 2 and proofs == [formula]

    def test_gives_up_after_four_retries(self, monkeypatch, machin_formula):
        calls = []
        monkeypatch.setattr(series, "pi_from_formula", self.uncertain_until(6, calls))
        with pytest.raises(PrecisionExhausted, match="50 digits"):
            pi_digits_from_formula(machin_formula, 50)
        terms, scale = self.FIRST
        assert calls == [(terms + 3 * i, scale + extra)
                         for i, extra in enumerate((0, 128, 384, 896, 1920))]

    def test_cli_exits_5_when_digits_stay_uncertain(self, monkeypatch, capsys):
        def uncertain(k, terms, scale):
            return SeriesResult(FixedReal(3 << scale, scale, 1 << scale), terms, 1.0, (terms,))

        monkeypatch.setattr(series, "pi_from_radicals", uncertain)
        assert cli.main(["compute-pi", "--k", "3", "--digits", "20"]) == cli.EXIT_PRECISION
        captured = capsys.readouterr()
        assert captured.out == "" and "could not validate 20 digits" in captured.err


class TestPiFromRadicals:
    def test_tower_divisions_take_the_recursion(self, monkeypatch, capsys):
        # At 2000 digits the working scale is about 6,700 bits, past the
        # division crossover: the roundings take the 2n-by-n recursion,
        # and every division it makes is divmod's.
        quotient_bits = []
        recursion = exact._div2n1n

        def checked(a, b, n):
            quotient_bits.append(a.bit_length() - n)
            result = recursion(a, b, n)
            assert result == divmod(a, b)
            return result

        monkeypatch.setattr(exact, "_div2n1n", checked)
        assert cli.main(["compute-pi", "--k", "40", "--digits", "2000"]) == 0
        assert capsys.readouterr().out.startswith("3.14159265358979323846")
        assert max(quotient_bits) > exact._DIV_CROSSOVER

    def test_depth_three_sixty_digits(self, pi_text_300):
        r = pi_from_radicals(3, 30, scale_for_digits(60))
        text, ok = r.value.to_decimal(60)
        assert ok and text == pi_text_300[:62]

    def test_depth_two_single_term(self):
        # One term from each integer cotangent m of c_2's chain (3, 15,
        # 229, ...): 8 times 4m / (1 + 4m^2), the conjugate series' first
        # term, for the first link and 1/m, Gregory's, for each later one,
        # with the chain followed from c_2 = 1 + sqrt(2) to 200 digits;
        # cotangents past 10**18 add under 1e-17.
        beta, chain = Fraction(cot_tower_digits(2, 200)), []
        while (m := math.ceil(beta)) < 10 ** 18:
            chain.append(m)
            beta = (beta * m + 1) / (m - beta)
        first, *later = chain
        closed = Fraction(32 * first, 1 + 4 * first * first) + sum(Fraction(8, m) for m in later)
        r = pi_from_radicals(2, 1, 96)
        assert r.term_counts == (7,)
        assert abs(r.value.value - closed) < Fraction(1, 10 ** 15)
        assert 3.16 < float(r.value.value) < 3.17

    def test_rejects_shallow_or_empty(self):
        with pytest.raises(ValueError):
            pi_from_radicals(1, 3, 64)
        with pytest.raises(ValueError):
            pi_from_radicals(3, 0, 64)

    @pytest.mark.parametrize("k, budget", [(0, {"digits": 5}), (1, {"digits": 5}),
                                           (-3, {"terms": 5}), (-3000, {"terms": 5})])
    def test_digits_reject_shallow_depth_before_the_rate(self, k, budget):
        with pytest.raises(ValueError, match="depth k must be at least 2"):
            pi_digits_from_radicals(k, **budget)


class TestRatePrediction:
    @pytest.mark.parametrize("k", range(2, 13))
    def test_tower_rate_uses_exact_cotangent(self, k):
        c = float(Fraction(cot_tower_digits(k, 30)))
        assert abs(_radical_rate(k) - math.log10(1 + 4 * c * c)) <= 1e-12

    # The rate is read off the integer parts with one shift; it must be
    # bit for bit the float that Fraction arithmetic gives.
    @given(st.fractions(max_denominator=10 ** 30).filter(lambda beta: beta != 0))
    @example(Fraction(-239))
    @example(Fraction(3, 4))
    @example(Fraction(5, 2))
    def test_digits_per_term_matches_fraction_formula(self, beta):
        assert digits_per_term(beta) == digits_per_term_from_fractions(beta)

    # Hypothesis prints its examples, and these parts are past the int
    # <-> str digit cap, so the second arguments run as parameters.
    @pytest.mark.parametrize("u2", [U2_K10, U2_K14], ids=["k10", "k14"])
    def test_digits_per_term_matches_fraction_formula_at_huge_u2(self, u2):
        assert digits_per_term(u2) == digits_per_term_from_fractions(u2)

    # Parts up to 700 bits, squared whole; q = 2**400 - 1 puts its square
    # just under a power of two.
    @given(st.integers(1, 1 << 700), st.integers(1, 1 << 700))
    @example((1 << 400) - 1, 1)
    @example(1, (1 << 400) - 1)
    @example(3, (1 << 400) - 2)
    def test_digits_per_term_matches_fraction_formula_at_big_parts(self, p, q):
        beta = Fraction(p, q)
        assert digits_per_term(beta) == digits_per_term_from_fractions(beta)

    def test_digits_per_term_examples(self):
        assert digits_per_term(Fraction(5)) == pytest.approx(2.00432, abs=1e-4)
        assert digits_per_term(Fraction(651)) == pytest.approx(6.22925, abs=1e-4)


# beta 2**200 lands on 6, or within 10**-400 of it, when num = 6 M + offset
# and den = M 2**200: past any head, so the readers convert whole.
_M = 10 ** 400 + 1


def _dyadic_floor_reference(num: int, den: int, w: int) -> tuple[int, int]:
    if den.bit_length() <= w:
        return abs(num), den
    return (abs(num) << w) // den, 1 << w


class TestCotangentReaders:
    """A cotangent arrives as ints or as a record's decimal text.  Either
    way _dyadic_floor, the one reader of its heads, rounds it to
    beta' = floor(|beta| 2**w) / 2**w past w bits, certified from heads or
    converted whole: for the chain at the working scale (_arctan_inverse)
    and for a record's rate at w = 64 (_term_rate)."""

    @given(st.integers(-2 ** 3000, 2 ** 3000).filter(bool), st.integers(1, 2 ** 3000),
           st.integers(8, 2000))
    @example(6 * _M, _M << 200, 200)  # beta 2**w an integer; the parts share M
    @example(6 * _M + 1, _M << 200, 200)  # just above it
    @example(-(6 * _M - 1), _M << 200, 200)  # just below it, negative
    @example(-3, 7, 100)  # short texts, converted whole, no rounding
    @example(5 ** 90, 3 ** 60, 80)  # den under w + 64 bits: whole, then rounded
    @example(-239, 1, 8)  # den = 1
    @example(2 ** 2000 + 1, 1, 8)
    @example(1, (1 << 400) - 1, 8)  # q**2 just under 2**800: heads straddle it
    def test_text_and_int_give_the_same_floor_and_rate(self, num, den, w):
        want = _dyadic_floor_reference(num, den, w)
        assert series._dyadic_floor(num, den, w) == want
        assert series._dyadic_floor(str(num), str(den), w) == want
        beta = Fraction(num, den)
        assert digits_per_term(beta) == digits_per_term_from_fractions(beta)

    @pytest.mark.parametrize("offset, whole", [(0, True), (1, True), (-1, True),
                                               (10 ** 399, False)])
    @pytest.mark.parametrize("kind", [int, str])
    def test_heads_decide_unless_beta_sits_on_a_dyadic(self, offset, whole, kind):
        with mock.patch.object(series, "_head", wraps=series._head) as head:
            series._dyadic_floor(kind(6 * _M + offset), kind(_M << 200), 200)
        assert any(call.args[1] == 0 for call in head.call_args_list) == whole
