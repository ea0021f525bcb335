from __future__ import annotations

import dataclasses
import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from machinpi import realnum
from machinpi.errors import AmbiguousRounding, EpsilonTooLarge
from machinpi.radicals import RadicalState, eval_radicals, select_u1
from machinpi.realnum import FixedReal
from machinpi.series import pi_digits_from_formula
from machinpi.machin import MachinFormula

from oracles import cot_tower_digits

# Published 20-digit expansions of c_k = a_k / sqrt(2 - a_(k-1)).
COTANGENT_20 = {
    2: "2.41421356237309504880",
    3: "5.02733949212584810451",
    5: "20.35546762498718817831",
    10: "651.89813557739378661810",
    17: "83443.02679976888016443942",
    23: "5340353.71544080937733612922",
}


class TestTower:
    @pytest.mark.parametrize("k", sorted(COTANGENT_20))
    def test_published_values(self, k):
        state = eval_radicals(k, 20)
        assert state.c_k.to_decimal(20) == (COTANGENT_20[k], True)

    @pytest.mark.parametrize("k", [2, 3, 4, 7, 12])
    def test_half_angle_oracle_agreement(self, k):
        state = eval_radicals(k, 25)
        text, ok = state.c_k.to_decimal(25)
        assert ok and text == cot_tower_digits(k, 25)

    @pytest.mark.parametrize("k", range(2, 10))
    def test_tower_ordering(self, k):
        state = eval_radicals(k, 15)
        two = Fraction(2)
        assert state.a_km1.upper < state.a_k.lower
        assert state.a_k.upper < two
        assert state.a_km1.lower > 1
        # the subtracted head stays strictly positive
        assert state.a_km1.upper < two

    @pytest.mark.parametrize("k", range(2, 10))
    def test_recurrence_consistency(self, k):
        # a_k**2 = 2 + a_(k-1): a_k's squared interval meets 2 + a_(k-1)'s.
        state = eval_radicals(k, 15)
        assert state.a_k.lower ** 2 <= 2 + state.a_km1.upper
        assert 2 + state.a_km1.lower <= state.a_k.upper ** 2

    def test_ratio_roughly_doubles(self):
        values = {k: eval_radicals(k, 15).c_k.value for k in range(5, 11)}
        for k in range(5, 10):
            ratio = values[k + 1] / values[k]
            assert Fraction(19, 10) < ratio < Fraction(21, 10)

    def test_agrees_with_series_pi(self):
        # c_k tracks 2**(k+1)/pi from below, within 0.2 of it.
        text, _ = pi_digits_from_formula(
            MachinFormula.two_term(3, Fraction(5), Fraction(-239)), 30
        )
        pi_approx = Fraction(int(text.replace(".", "")), 10 ** 30)
        for k in range(2, 9):
            c = eval_radicals(k, 15).c_k.value
            gap = Fraction(2 ** (k + 1)) / pi_approx - c
            assert 0 < gap < Fraction(1, 5)

    def test_rejects_shallow_depth(self):
        with pytest.raises(ValueError):
            eval_radicals(1, 10)

    def test_rejects_no_digits(self):
        with pytest.raises(ValueError, match="decimal_digits must be at least 1"):
            eval_radicals(5, 0)

    @pytest.mark.parametrize("k", [65, 100, 400])
    def test_guard_covers_deep_towers_first_time(self, k):
        # c_k's error bound grows as 2**(3k - 4) ulps; the guard of the one
        # evaluation must cover it.
        assert eval_radicals(k, 50).c_k.to_decimal(50)[1]

    @pytest.mark.parametrize("k", [2, 3, 5, 10, 23, 40, 65, 400])
    @pytest.mark.parametrize("digits", [1, 26, 300])
    def test_one_evaluation_keeps_sixty_guard_bits(self, k, digits):
        # Why nothing is retried: every root of the ladder is within 2
        # ulps, 2 - a_(k-1) stays far from zero, and c_k's error of about
        # 2**(3k - 4) ulps leaves 60 of the 3k + 64 guard bits.
        state = eval_radicals(k, digits)
        assert state.a_k.err_ulp <= 2 and state.a_km1.err_ulp <= 2
        two = FixedReal.from_int(2, state.a_k.scale)
        assert (two - state.a_km1).lower > Fraction(1, 2 ** (2 * k - 3))
        assert state.c_k.err_ulp.bit_length() <= 3 * k + 4
        assert state.c_k.to_decimal(digits)[1]

    def test_one_isqrt_per_tower_root(self, monkeypatch):
        # k roots climb the ladder and one more divides c_k; each interval
        # root takes a single integer square root.
        calls = []

        def counting_isqrt(n):
            calls.append(n.bit_length())
            return math.isqrt(n)

        monkeypatch.setattr(realnum, "isqrt", counting_isqrt)
        assert eval_radicals(400, 10024).c_k.to_decimal(10024)[1]
        assert len(calls) == 401


class TestSelection:
    def test_published_selections(self):
        cases = {
            # (k, denominator): (u1, leading residual digits, sign)
            (2, 10): (Fraction(12, 5), "-0.01421356237309504880"),
            (3, 1): (Fraction(5), "-0.02733949212584810451"),
            (5, 1): (Fraction(20), "-0.35546762498718817831"),
            (17, 1): (Fraction(83443), "-0.02679976888016443942"),
            (23, 10): (Fraction(53403537, 10), "-0.01544080937733612922"),
        }
        for (k, den), (u1, eps_text) in cases.items():
            sel = select_u1(eval_radicals(k, 26), den)
            assert sel.u1 == u1
            assert sel.epsilon.to_decimal(20) == (eps_text, True)

    def test_nearest_rounding_goes_up_at_depth_ten(self):
        sel = select_u1(eval_radicals(10, 26), 1)
        assert sel.u1 == 652
        assert sel.epsilon.to_decimal(20) == ("0.10186442260621338189", True)

    def test_floor_mode_reproduces_truncated_choice(self):
        sel = select_u1(eval_radicals(10, 26), 1, rounding="floor")
        assert sel.u1 == 651
        assert sel.epsilon.to_decimal(20) == ("-0.89813557739378661810", True)

    def test_both_residual_signs_occur(self):
        signs = set()
        for k, den in ((2, 10), (3, 1), (5, 1), (10, 1), (17, 1), (23, 10)):
            sel = select_u1(eval_radicals(k, 26), den)
            signs.add(sel.epsilon.value > 0)
        assert signs == {True, False}

    def test_residual_bounded_by_half_grid_step(self):
        for k, den in ((3, 1), (10, 1), (23, 10)):
            sel = select_u1(eval_radicals(k, 26), den)
            assert abs(sel.epsilon.value) <= Fraction(1, 2 * den)

    def test_epsilon_too_large_on_coarse_grid(self):
        with pytest.raises(EpsilonTooLarge):
            select_u1(eval_radicals(2, 26), 1)

    def test_ambiguous_rounding_on_blurred_input(self):
        state = eval_radicals(3, 26)
        blurred = dataclasses.replace(
            state, c_k=state.c_k.widened(1 << state.c_k.scale)
        )
        with pytest.raises(AmbiguousRounding):
            select_u1(blurred, 1)

    # c_k = m / 2**8 +- e ulps, from 40 up so the residual is always small:
    # u1 is the interval's one rounding, found here on exact Fractions.
    @given(st.integers(40 << 8, 1000 << 8), st.integers(0, 300),
           st.sampled_from([1, 10, 100]), st.sampled_from(["nearest", "floor"]))
    @example((40 << 8) + 128, 0, 1, "nearest").via("exact half rounds up")
    @example((40 << 8) + 127, 0, 1, "nearest").via("just under a half")
    @example((41 << 8) - 1, 1, 1, "floor").via("upper end on the boundary")
    @example((40 << 8) + 128, 1, 1, "nearest").via("ends on both sides of a half")
    def test_selection_rounds_the_interval_ends(self, m, e, d, rounding):
        c = FixedReal(m, 8, e)
        state = RadicalState(k=3, a_k=c, a_km1=c, c_k=c)

        def rounded(x: Fraction) -> int:
            return math.floor(x + Fraction(1, 2) if rounding == "nearest" else x)

        ends = {rounded(Fraction((m + sign * e) * d, 256)) for sign in (-1, 1)}
        if len(ends) > 1:
            with pytest.raises(AmbiguousRounding, match=f"straddles a {rounding} boundary"):
                select_u1(state, d, rounding)
        else:
            assert select_u1(state, d, rounding).u1 == Fraction(ends.pop(), d)

    def test_rejects_bad_parameters(self):
        state = eval_radicals(3, 20)
        with pytest.raises(ValueError):
            select_u1(state, 0)
        with pytest.raises(ValueError):
            select_u1(state, 1, rounding="stochastic")
