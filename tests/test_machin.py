from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from machinpi.cli import generate_record
from machinpi.errors import DegenerateSecondTerm, NotExactlyVerifiable
from machinpi.exact import GaussianInt, decimal_digit_count, format_decimal_head
from machinpi.machin import (
    MAX_POWER_BITS,
    MachinFormula,
    check_relation_pair,
    power_bits,
    solve_second_term,
    solve_second_term_direct,
    solve_u2,
    verify_formula,
)
from machinpi.radicals import eval_radicals, select_u1

from oracles import (
    big_int_text,
    branch_turns,
    rotation_power_reference,
    rotation_product_reference,
)


BETA2_FOR_BILLION_NUM = int(
    "1000000006999999978999999965000000035000000020999999992999999999"
)
BETA2_FOR_BILLION_DEN = int(
    "999999992999999979000000035000000034999999978999999993000000001"
)


class TestSolve:
    def test_depth_two_with_tenths(self):
        assert solve_u2(Fraction(24, 10), 2) == -239

    def test_depth_three_classic(self):
        assert solve_u2(Fraction(5), 3) == -239

    def test_depth_five_exact_rational(self):
        expected = Fraction(-945426570789006031681, 13176476709447727679)
        got = solve_u2(Fraction(20), 5)
        assert got == expected
        assert decimal_digit_count(got.numerator) == 21
        assert decimal_digit_count(got.denominator) == 20

    def test_depth_ten_digit_counts_and_head(self):
        u2 = solve_u2(Fraction(651), 10)
        assert decimal_digit_count(u2.numerator) == 1364
        assert decimal_digit_count(u2.denominator) == 1361
        assert format_decimal_head(u2) == "-922.88953146392823766085"

    def test_degenerate_when_first_term_is_quarter_turn(self):
        with pytest.raises(DegenerateSecondTerm):
            solve_u2(Fraction(1), 1)

    def test_degenerate_when_second_argument_would_vanish(self):
        # three eighth-turns: off from pi/4 by exactly a right angle
        with pytest.raises(DegenerateSecondTerm):
            solve_second_term(3, Fraction(1))

    def test_requires_positive_first_argument(self):
        with pytest.raises(ValueError):
            solve_u2(Fraction(-5), 3)
        with pytest.raises(ValueError):
            solve_u2(Fraction(5), 0)

    def test_random_integer_substitution(self):
        beta2 = solve_second_term(7, Fraction(10 ** 9))
        assert beta2 == Fraction(BETA2_FOR_BILLION_NUM, BETA2_FOR_BILLION_DEN)
        assert format_decimal_head(beta2) == "1.00000001400000009800"

    def test_small_closures(self):
        assert solve_second_term(2, Fraction(2)) == -7
        assert solve_second_term(1, Fraction(2)) == 3


class TestDirectPathEquivalence:
    @pytest.mark.parametrize("k,u1", [
        (1, Fraction(2)),
        (2, Fraction(24, 10)),
        (3, Fraction(5)),
        (4, Fraction(10)),
        (5, Fraction(20)),
        (6, Fraction(41)),
        (7, Fraction(81)),
        (8, Fraction(163)),
        (9, Fraction(326)),
        (10, Fraction(651)),
        (10, Fraction(652)),
    ])
    def test_closed_form_matches_direct_evaluation(self, k, u1):
        assert solve_u2(u1, k) == solve_second_term_direct(1 << (k - 1), u1)

    @given(
        st.integers(min_value=1, max_value=24),
        st.fractions(min_value=-60, max_value=60, max_denominator=16).filter(bool),
    )
    @example(1, Fraction(1))  # z = i: the first term alone is pi/4
    @example(3, Fraction(1))  # z = -i: beta2 would be zero
    def test_general_coefficients_agree(self, alpha, beta):
        try:
            fast = solve_second_term(alpha, beta)
        except DegenerateSecondTerm:
            with pytest.raises(DegenerateSecondTerm):
                solve_second_term_direct(alpha, beta)
            return
        assert fast == solve_second_term_direct(alpha, beta)

    def test_power_of_two_wrapper_matches_general_solver(self):
        for k in range(1, 9):
            u1 = Fraction(7, 2)
            assert solve_u2(u1, k) == solve_second_term(1 << (k - 1), u1)


class TestVerify:
    def test_classic_formula(self):
        assert verify_formula(
            MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(-239))))
        ).ok

    def test_tenths_variant(self):
        assert verify_formula(
            MachinFormula(((Fraction(2), Fraction(24, 10)), (Fraction(1), Fraction(-239))))
        ).ok

    def test_single_term_quarter_turn(self):
        assert verify_formula(MachinFormula.single(Fraction(1), Fraction(1))).ok

    def test_two_simple_terms(self):
        assert verify_formula(
            MachinFormula(((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))))
        ).ok

    def test_negative_coefficient_spelling(self):
        assert verify_formula(
            MachinFormula(((Fraction(2), Fraction(2)), (Fraction(-1), Fraction(7))))
        ).ok

    def test_sign_flip_fails_with_certificate(self):
        outcome = verify_formula(
            MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(239))))
        )
        assert not outcome.ok
        assert outcome.product.re != outcome.product.im

    def test_rational_coefficient_rejected(self):
        with pytest.raises(NotExactlyVerifiable):
            verify_formula(MachinFormula.single(Fraction(1, 2), Fraction(1)))

    def test_formula_holding_only_modulo_pi_fails(self):
        # 5 arctan(1) = pi/4 + pi: G = (1 + i)**5 = -4 - 4i passes the
        # product check, the branch check rejects it.
        outcome = verify_formula(MachinFormula.single(Fraction(5), Fraction(1)))
        assert not outcome.ok
        assert outcome.product == GaussianInt(-4, -4) and outcome.turns == 1
        assert "branch check failed" in outcome.summary()

    def test_closing_term_off_the_principal_branch_fails(self):
        # what solve_u2 returns for u1 = 1/2 at depth 3: 4 arctan(2) +
        # arctan(-17/31) = 5 pi/4
        u2 = solve_u2(Fraction(1, 2), 3)
        assert u2 == Fraction(-31, 17)
        outcome = verify_formula(MachinFormula.two_term(3, Fraction(1, 2), u2))
        assert not outcome.ok and outcome.turns == 1

    def test_failure_summary_names_the_product_check(self):
        outcome = verify_formula(
            MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(239))))
        )
        assert outcome.summary().startswith("exact product check failed")

    def test_tiny_argument_needs_no_float_overflow(self):
        # 1/beta = 10**400 is beyond float range; the pair cancels exactly.
        tiny = Fraction(1, 10 ** 400)
        terms = ((Fraction(1), Fraction(1)), (Fraction(1), tiny), (Fraction(-1), tiny))
        assert verify_formula(MachinFormula(terms)).ok

    def test_coefficients_too_large_for_branch_check(self):
        with pytest.raises(NotExactlyVerifiable):
            verify_formula(MachinFormula.single(Fraction(2 ** 48), Fraction(1)))

    @pytest.mark.parametrize("bits", [48, 20000])
    def test_branch_check_guard_names_the_weight_by_size(self, bits):
        # 2**20000 is past float range; the guard compares it exactly.
        with pytest.raises(NotExactlyVerifiable, match=f"{bits + 1}-bit magnitude"):
            verify_formula(MachinFormula.single(Fraction(2 ** bits), Fraction(1)))

    def test_branch_check_boundary_is_exact(self):
        # The bound pi/8 / 2**-49 is exact in a float, so the weights on
        # either side of it fall on either side of the guard; the one
        # below reaches the power-size check instead.
        below = math.floor(Fraction(math.pi / 8 / 2.0 ** -49))
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            verify_formula(MachinFormula.single(Fraction(below), Fraction(1)))
        with pytest.raises(NotExactlyVerifiable, match="branch check"):
            verify_formula(MachinFormula.single(Fraction(below + 1), Fraction(1)))

    def test_formula_validation(self):
        with pytest.raises(ValueError):
            MachinFormula(((Fraction(1), Fraction(0)),))
        with pytest.raises(ValueError):
            MachinFormula(())

    @pytest.mark.parametrize("k,den", [(2, 10), (3, 1), (5, 1), (8, 1), (10, 1)])
    def test_generated_formulas_round_trip(self, k, den):
        sel = select_u1(eval_radicals(k, 26), den)
        u2 = solve_u2(sel.u1, k)
        assert verify_formula(MachinFormula.two_term(k, sel.u1, u2)).ok

    @pytest.mark.parametrize("k", range(2, 18))
    def test_every_generated_record_passes_the_branch_check(self, k):
        record = generate_record(k, 10 if k == 2 else 1, "nearest")
        assert record.verified


class TestRelations:
    def test_published_equivalence(self):
        assert check_relation_pair((4, Fraction(5)), (2, Fraction(24, 10)))

    def test_reflexive(self):
        assert check_relation_pair((3, Fraction(7, 2)), (3, Fraction(7, 2)))

    def test_double_angle(self):
        # two turns at cot 2 equal one turn at cot 3/4
        assert check_relation_pair((2, Fraction(2)), (1, Fraction(3, 4)))

    def test_detects_inequality(self):
        assert not check_relation_pair((4, Fraction(5)), (2, Fraction(5)))

    @given(
        st.integers(min_value=1, max_value=10),
        st.fractions(min_value=Fraction(1, 4), max_value=30, max_denominator=10),
    )
    def test_relation_consistent_with_rotations(self, alpha, beta):
        assert check_relation_pair((alpha, beta), (alpha, beta))
        for other in ((alpha, -beta), (-alpha, beta), (2 * alpha, beta / 2)):
            assert check_relation_pair((alpha, beta), other) == (
                rotation_power_reference(beta, alpha)
                == rotation_power_reference(other[1], other[0])
            )


class TestSecondArgumentMagnitude:
    @pytest.mark.parametrize("k", range(3, 13))
    def test_second_argument_larger_than_first_default_policy(self, k):
        sel = select_u1(eval_radicals(k, 26), 1)
        u2 = solve_u2(sel.u1, k)
        assert abs(u2) > sel.u1

    def test_second_argument_larger_at_depth_two_with_tenths(self):
        sel = select_u1(eval_radicals(2, 26), 10)
        assert abs(solve_u2(sel.u1, 2)) > sel.u1

    @pytest.mark.parametrize("k", range(13, 18))
    def test_second_argument_larger_through_depth_seventeen(self, k):
        sel = select_u1(eval_radicals(k, 26), 1)
        u2 = solve_u2(sel.u1, k)
        assert abs(u2) > sel.u1


def _selected_u1(k: int) -> Fraction:
    return select_u1(eval_radicals(k, 26), 10 if k == 2 else 1).u1


class TestPowerSizeLimit:
    """A Gaussian power over MAX_POWER_BITS is refused before it is formed."""

    @pytest.mark.parametrize("alpha, beta", [
        (1000, Fraction(5)), (7, Fraction(-24, 10)), (3, Fraction(3 ** 200, 7 ** 50)),
    ])
    def test_size_matches_formed_power(self, alpha, beta):
        g = GaussianInt(beta.numerator, beta.denominator) ** alpha
        formed = max(abs(g.re).bit_length(), abs(g.im).bit_length())
        assert abs(power_bits(alpha, beta) - formed) <= 1

    @pytest.mark.parametrize("k, allowed", [(23, True), (26, True), (27, False)])
    def test_generate_depth_boundary(self, k, allowed):
        assert (power_bits(1 << (k - 1), _selected_u1(k)) <= MAX_POWER_BITS) == allowed

    def test_depth_twenty_three_first_term(self):
        assert power_bits(1 << 22, Fraction(53403537, 10)) == pytest.approx(1.08e8, rel=0.01)

    def test_refused_without_forming_a_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Gaussian power formed")

        monkeypatch.setattr(GaussianInt, "__pow__", refuse)
        for alpha in (1 << 40, 10 ** 400):
            with pytest.raises(ValueError, match="limit"):
                solve_second_term(alpha, Fraction(5))
            with pytest.raises(ValueError, match="limit"):
                solve_second_term_direct(alpha, Fraction(5))
        formula = MachinFormula.two_term(27, _selected_u1(27), Fraction(3))
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            verify_formula(formula)


class TestGcdFreeSolve:
    @pytest.mark.parametrize("k", range(2, 16))
    def test_second_argument_in_lowest_terms(self, k):
        u2 = solve_u2(_selected_u1(k), k)
        assert u2.denominator > 0
        assert math.gcd(u2.numerator, u2.denominator) == 1

    @pytest.mark.parametrize("k,shared", [(3, 4), (14, 1), (15, 1 << 8192)])
    def test_shared_factor_is_a_power_of_two(self, k, shared):
        u1 = _selected_u1(k)
        g = GaussianInt(u1.numerator, u1.denominator) ** (1 << (k - 1))
        assert math.gcd(g.re + g.im, g.re - g.im) == shared


@lru_cache(maxsize=None)
def _record_terms(k: int, variant: str):
    """Terms of the generated depth-k formula, as generated, with u2's
    sign flipped, or with one digit of u2's numerator changed."""
    record = generate_record(k, 1, "nearest")
    u1, u2 = record.u1, record.u2
    if variant == "sign-flipped":
        u2 = -u2
    elif variant == "perturbed":
        with big_int_text():
            digits = str(abs(u2.numerator))
            i = len(digits) // 2
            digits = digits[:i] + str((int(digits[i]) + 1) % 10) + digits[i + 1:]
            u2 = Fraction(int(digits) * (-1 if u2 < 0 else 1), u2.denominator)
    return MachinFormula.two_term(k, u1, u2).terms


def _rotation_of(g: GaussianInt) -> tuple[Fraction, Fraction]:
    """G**2 / |G|**2, the rotation the certificate G stands for."""
    n = g.norm()
    return Fraction(g.re * g.re - g.im * g.im, n), Fraction(2 * g.re * g.im, n)


small_alphas = st.integers(min_value=-6, max_value=6)
small_betas = st.fractions(
    min_value=-30, max_value=30, max_denominator=8
).filter(lambda beta: beta != 0)
VALID_SMALL_FORMULAS = (
    ((4, Fraction(5)), (-1, Fraction(239))),
    ((2, Fraction(12, 5)), (1, Fraction(-239))),
    ((1, Fraction(2)), (1, Fraction(3))),
    ((2, Fraction(2)), (-1, Fraction(7))),
    ((1, Fraction(1)),),
)


def _formula(terms) -> MachinFormula:
    return MachinFormula(tuple((Fraction(a), Fraction(b)) for a, b in terms))


class TestVerifyAgainstReference:
    """The Gaussian-integer check against the Gaussian-rational rotation
    product of tests/oracles.py."""

    @pytest.mark.parametrize("variant,valid", [
        ("generated", True), ("sign-flipped", False), ("perturbed", False),
    ])
    @pytest.mark.parametrize("k", [3, 10, 13])
    def test_records(self, k, variant, valid):
        terms = _record_terms(k, variant)
        reference = rotation_product_reference(terms) == (0, 1)
        assert verify_formula(MachinFormula(terms)).ok == reference == valid

    @given(st.lists(st.tuples(small_alphas, small_betas), min_size=1, max_size=3))
    def test_random_small_formulas(self, terms):
        outcome = verify_formula(_formula(terms))
        reference = rotation_product_reference(terms)
        turns = branch_turns(terms) if reference == (0, 1) else 0
        assert outcome.ok == (reference == (0, 1) and turns == 0)
        assert outcome.turns == turns
        assert _rotation_of(outcome.product) == reference

    @given(st.sampled_from(VALID_SMALL_FORMULAS), small_alphas, small_betas,
           st.booleans())
    def test_valid_formulas_with_cancelling_pair(self, base, alpha, beta, flip):
        # alpha*arctan(1/beta) cancels against -alpha*arctan(1/beta), spelled
        # with either the coefficient or the argument negated.
        cancel = (-alpha, beta) if flip else (alpha, -beta)
        terms = base + ((alpha, beta), cancel)
        assert rotation_product_reference(terms) == (0, 1)
        assert verify_formula(_formula(terms)).ok
