from __future__ import annotations

import ast
import copy
import math
import subprocess
import sys
from fractions import Fraction
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given
from hypothesis import strategies as st

from machinpi import machin, records
from machinpi.analysis import ConvergenceReport
from machinpi.cli import generate_record
from machinpi.errors import DegenerateSecondTerm, NotExactlyVerifiable, UnverifiedFormula
from machinpi.exact import decimal_head, gaussian_power
from machinpi.machin import (
    MAX_POWER_BITS,
    MachinFormula,
    power_bits,
    second_term_text,
    solve_second_term,
    solve_second_term_direct,
    solve_u2,
    term_text,
    verify_formula,
)
from machinpi.radicals import RadicalState, U1Selection, eval_radicals, select_u1
from machinpi.realnum import FixedReal
from machinpi.records import FormulaRecord
from machinpi.series import SeriesResult

from oracles import (
    big_int_text,
    branch_turns,
    gi_mul_naive,
    gi_pow_naive,
    rotation_product_reference,
)


BETA2_FOR_BILLION_NUM = int(
    "1000000006999999978999999965000000035000000020999999992999999999"
)
BETA2_FOR_BILLION_DEN = int(
    "999999992999999979000000035000000034999999978999999993000000001"
)


def verifies(formula: MachinFormula) -> bool:
    """verify_formula's verdict: False where it raises UnverifiedFormula;
    a refused check (NotExactlyVerifiable) propagates."""
    try:
        verify_formula(formula)
    except NotExactlyVerifiable:
        raise
    except UnverifiedFormula:
        return False
    return True


class TestSolve:
    def test_depth_two_with_tenths(self):
        assert solve_u2(Fraction(24, 10), 2) == -239

    def test_depth_three_classic(self):
        assert solve_u2(Fraction(5), 3) == -239

    def test_depth_five_exact_rational(self):
        expected = Fraction(-945426570789006031681, 13176476709447727679)
        got = solve_u2(Fraction(20), 5)
        assert got == expected
        num, den = second_term_text(1 << 4, Fraction(20))
        assert (len(num.lstrip("-")), len(den)) == (21, 20)

    def test_depth_ten_digit_counts_and_head(self):
        num, den = second_term_text(1 << 9, Fraction(651))
        assert (len(num.lstrip("-")), len(den)) == (1364, 1361)
        assert decimal_head(num, den) == "-922.88953146392823766085"

    def test_degenerate_when_first_term_is_quarter_turn(self):
        with pytest.raises(DegenerateSecondTerm):
            solve_u2(Fraction(1), 1)

    def test_degenerate_when_second_argument_would_vanish(self):
        # three eighth-turns: off from pi/4 by exactly a right angle
        with pytest.raises(DegenerateSecondTerm):
            solve_second_term(3, Fraction(1))

    @pytest.mark.parametrize("solve", [second_term_text, solve_second_term_direct])
    def test_requires_positive_first_coefficient(self, solve):
        with pytest.raises(ValueError, match="first coefficient must be a positive"):
            solve(0, Fraction(5))

    @pytest.mark.parametrize("alpha, beta, text", [
        (8, Fraction(2), "8*arctan(1/2)"),
        (3, Fraction(-1), "3*arctan(1/-1)"),
        (3, Fraction(1, 2), "3*arctan(1/(1/2))"),
        (1, Fraction(-24, 10), "1*arctan(1/(-12/5))"),
    ])
    def test_term_text_brackets_a_non_integer_cotangent(self, alpha, beta, text):
        assert term_text(alpha, beta) == text

    def test_requires_positive_first_argument(self):
        with pytest.raises(ValueError):
            solve_u2(Fraction(-5), 3)
        with pytest.raises(ValueError):
            solve_u2(Fraction(5), 0)

    def test_random_integer_substitution(self):
        beta2 = solve_second_term(7, Fraction(10 ** 9))
        assert beta2 == Fraction(BETA2_FOR_BILLION_NUM, BETA2_FOR_BILLION_DEN)
        assert decimal_head(*second_term_text(7, Fraction(10 ** 9))) == \
            "1.00000001400000009800"

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

    @given(st.integers(min_value=1, max_value=300), st.integers(-100, 100),
           st.integers(2, 100), st.sampled_from(["p + q odd", "p and q odd"]))
    @example(255, 1, 3, "p and q odd")  # beta1 = 3/7, odd exponent
    @example(6, -3, 4, "p + q odd")  # beta1 = -3/4
    def test_decimal_solver_matches_direct(self, alpha, p, q, parity):
        # second_term_text takes the shared power of two from p and q's
        # parities; the direct path reduces its own quotient by gcd.
        if parity == "p and q odd":
            p, q = 2 * p + 1, 2 * q + 1
        else:
            q += (p + q + 1) & 1
        assume(math.gcd(p, q) == 1)
        beta = Fraction(p, q)
        try:
            direct = solve_second_term_direct(alpha, beta)
        except DegenerateSecondTerm:
            with pytest.raises(DegenerateSecondTerm):
                second_term_text(alpha, beta)
            return
        assert second_term_text(alpha, beta) == (str(direct.numerator),
                                                 str(direct.denominator))

    def test_power_of_two_wrapper_matches_general_solver(self):
        for k in range(1, 9):
            u1 = Fraction(7, 2)
            assert solve_u2(u1, k) == solve_second_term(1 << (k - 1), u1)


class TestVerify:
    def test_classic_formula(self):
        assert verifies(
            MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(-239))))
        )

    def test_tenths_variant(self):
        assert verifies(
            MachinFormula(((Fraction(2), Fraction(24, 10)), (Fraction(1), Fraction(-239))))
        )

    def test_single_term_quarter_turn(self):
        assert verifies(MachinFormula.single(Fraction(1), Fraction(1)))

    def test_two_simple_terms(self):
        assert verifies(
            MachinFormula(((Fraction(1), Fraction(2)), (Fraction(1), Fraction(3))))
        )

    def test_negative_coefficient_spelling(self):
        assert verifies(
            MachinFormula(((Fraction(2), Fraction(2)), (Fraction(-1), Fraction(7))))
        )

    def test_sign_flip_fails_with_certificate(self):
        # G = (5 + i)**4 (239 + i) = 113284 + 115196i: the parts differ
        with pytest.raises(UnverifiedFormula, match=(
                r"^exact product check failed: G\.re \(17 bits\) != G\.im \(17 bits\)$")):
            verify_formula(
                MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(239))))
            )

    def test_rational_coefficient_rejected(self):
        # refused when the formula is built, before any check could run
        with pytest.raises(ValueError, match="coefficients must be integers"):
            MachinFormula.single(Fraction(1, 2), Fraction(1))

    def test_formula_holding_only_modulo_pi_fails(self):
        # 5 arctan(1) = pi/4 + pi: G = (1 + i)**5 = -4 - 4i passes the
        # product check, the branch check rejects it.
        with pytest.raises(UnverifiedFormula, match=(
                r"^branch check failed: the sum is pi/4 \+1\*pi \(the product check "
                r"holds: G\.re \(3 bits\) == G\.im \(3 bits\)\)$")):
            verify_formula(MachinFormula.single(Fraction(5), Fraction(1)))
        assert gaussian_power(1, 1, 5) == (-4, -4)

    def test_closing_term_off_the_principal_branch_fails(self):
        # what solve_u2 returns for u1 = 1/2 at depth 3: 4 arctan(2) +
        # arctan(-17/31) = 5 pi/4
        u2 = solve_u2(Fraction(1, 2), 3)
        assert u2 == Fraction(-31, 17)
        with pytest.raises(UnverifiedFormula, match=r"the sum is pi/4 \+1\*pi"):
            verify_formula(MachinFormula.two_term(3, Fraction(1, 2), u2))

    def test_failure_summary_names_the_product_check(self):
        with pytest.raises(UnverifiedFormula, match="^exact product check failed"):
            verify_formula(
                MachinFormula(((Fraction(4), Fraction(5)), (Fraction(1), Fraction(239))))
            )

    def test_tiny_argument_needs_no_float_overflow(self):
        # 1/beta = 10**400 is beyond float range; the pair cancels exactly.
        tiny = Fraction(1, 10 ** 400)
        terms = ((Fraction(1), Fraction(1)), (Fraction(1), tiny), (Fraction(-1), tiny))
        assert verifies(MachinFormula(terms))

    def test_coefficients_too_large_for_branch_check(self):
        with pytest.raises(NotExactlyVerifiable):
            verify_formula(MachinFormula.single(Fraction(2 ** 48), Fraction(1)))

    @pytest.mark.parametrize("bits", [48, 20000])
    def test_branch_check_guard_names_the_weight_by_size(self, bits):
        # 2**20000 is past float range; the guard compares it exactly.
        with pytest.raises(NotExactlyVerifiable, match=f"{bits + 1}-bit magnitude"):
            verify_formula(MachinFormula.single(Fraction(2 ** bits), Fraction(1)))

    def test_branch_check_boundary_is_exact(self, monkeypatch):
        # The bound pi/8 / 2**-49 is exact in a float, so the weights on
        # either side of it fall on either side of the guard; the one
        # below reaches the power-size check instead.  Neither may form
        # its power: (1 + i)**(2.2e14) would exhaust memory.
        def no_power(*args):
            raise AssertionError("a Gaussian power was formed")

        monkeypatch.setattr(machin, "gaussian_power", no_power)
        below = math.floor(Fraction(math.pi / 8 / 2.0 ** -49))
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            verify_formula(MachinFormula.single(Fraction(below), Fraction(1)))
        with pytest.raises(NotExactlyVerifiable, match="branch check"):
            verify_formula(MachinFormula.single(Fraction(below + 1), Fraction(1)))

    def test_power_size_checked_once_on_the_sum(self, monkeypatch):
        # The summed power_bits refuse a single oversized term before any
        # power is formed.
        def no_power(*args):
            raise AssertionError("a Gaussian power was formed")

        monkeypatch.setattr(machin, "gaussian_power", no_power)
        formula = MachinFormula.single(1 << 40, Fraction(1))
        assert power_bits(1 << 40, Fraction(1)) > MAX_POWER_BITS
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            verify_formula(formula)

    def test_formula_validation(self):
        with pytest.raises(ValueError):
            MachinFormula(((Fraction(1), Fraction(0)),))
        with pytest.raises(ValueError):
            MachinFormula(())

    @pytest.mark.parametrize("k,den", [(2, 10), (3, 1), (5, 1), (8, 1), (10, 1)])
    def test_generated_formulas_round_trip(self, k, den):
        sel = select_u1(eval_radicals(k, 26), den)
        u2 = solve_u2(sel.u1, k)
        assert verifies(MachinFormula.two_term(k, sel.u1, u2))

    @pytest.mark.parametrize("k", range(2, 18))
    def test_every_generated_record_passes_the_branch_check(self, k):
        record = generate_record(k, 10 if k == 2 else 1, "nearest")
        assert record.verified


class TestFormulaTerms:
    def test_terms_normalized_to_int_and_fraction(self):
        formula = MachinFormula(((Fraction(4), 5), (-1, Fraction(239))))
        assert formula.terms == ((4, Fraction(5)), (-1, Fraction(239)))
        for alpha, beta in formula.terms:
            assert type(alpha) is int and type(beta) is Fraction

    def test_two_term_holds_the_power_of_two_as_int(self):
        k = 14
        formula = MachinFormula.two_term(k, Fraction(4099), Fraction(-7, 3))
        assert formula.terms == ((1 << (k - 1), Fraction(4099)), (1, Fraction(-7, 3)))
        assert all(type(alpha) is int for alpha, _ in formula.terms)

    @pytest.mark.parametrize("alpha", [Fraction(1, 2), 0.5, "1/2"])
    def test_non_integer_coefficient_refused(self, alpha):
        with pytest.raises(ValueError, match="coefficients must be integers"):
            MachinFormula(((alpha, Fraction(1)),))
        with pytest.raises(ValueError, match="coefficients must be integers"):
            MachinFormula.single(alpha, Fraction(1))


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
        re, im = gaussian_power(beta.numerator, beta.denominator, alpha)
        formed = max(abs(re).bit_length(), abs(im).bit_length())
        assert abs(power_bits(alpha, beta) - formed) <= 1

    @pytest.mark.parametrize("k, allowed", [(23, True), (26, True), (27, False)])
    def test_generate_depth_boundary(self, k, allowed):
        assert (power_bits(1 << (k - 1), _selected_u1(k)) <= MAX_POWER_BITS) == allowed

    def test_depth_twenty_three_first_term(self):
        assert power_bits(1 << 22, Fraction(53403537, 10)) == pytest.approx(1.08e8, rel=0.01)

    def test_refused_without_forming_a_power(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("Gaussian power formed")

        monkeypatch.setattr(machin, "gaussian_power", refuse)
        for alpha in (1 << 40, 10 ** 400):
            with pytest.raises(ValueError, match="limit"):
                solve_second_term(alpha, Fraction(5))
            with pytest.raises(ValueError, match="limit"):
                solve_second_term_direct(alpha, Fraction(5))
        formula = MachinFormula.two_term(27, _selected_u1(27), Fraction(3))
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            verify_formula(formula)

    def test_check_second_term_sizes_the_power_once(self, monkeypatch):
        u2 = second_term_text(4, Fraction(5))
        calls = []

        def counting(alpha, beta):
            calls.append((alpha, beta))
            return power_bits(alpha, beta)

        monkeypatch.setattr(machin, "power_bits", counting)
        assert machin.check_second_term(3, Fraction(5), u2)
        assert calls == [(4, Fraction(5))]


class TestGcdFreeSolve:
    @pytest.mark.parametrize("k", range(2, 16))
    def test_second_argument_in_lowest_terms(self, k):
        u2 = solve_u2(_selected_u1(k), k)
        assert u2.denominator > 0
        assert math.gcd(u2.numerator, u2.denominator) == 1

    @pytest.mark.parametrize("k,shared", [(3, 4), (14, 1), (15, 1 << 8192)])
    def test_shared_factor_is_a_power_of_two(self, k, shared):
        u1 = _selected_u1(k)
        re, im = gaussian_power(u1.numerator, u1.denominator, 1 << (k - 1))
        assert math.gcd(re + im, re - im) == shared


class TestClosingTurns:
    """closing_turns reads only the sign of the solved u2; the branch it
    gives is checked against the oracles' own arctangent estimate."""

    # (2, 1) and (6, 1): u2 = -1 and theta/pi is 1/2 and 3/2, the middle
    # of the interval the sign rule shifts by a half; (8, 1): u2 = 1.
    @pytest.mark.parametrize("alpha1, beta1, turns", [
        (2, Fraction(1), 0), (6, Fraction(1), 1), (8, Fraction(1), 2), (4, Fraction(5), 0),
    ])
    def test_hand_pins(self, alpha1, beta1, turns):
        assert machin.closing_turns(alpha1, beta1, second_term_text(alpha1, beta1)) == turns

    @given(st.integers(1, 64), st.integers(-50, 50).filter(bool), st.integers(1, 50))
    @example(6, 1, 1).via("u2 < 0, n = 1")
    @example(8, 1, 1).via("u2 > 0, n = 2")
    @example(40, -7, 3).via("n < 0")
    def test_matches_oracle_branch(self, alpha1, p, q):
        beta1 = Fraction(p, q)
        try:
            num, den = second_term_text(alpha1, beta1)
        except DegenerateSecondTerm:
            assume(False)
        beta2 = Fraction(int(num), int(den))
        assert machin.closing_turns(alpha1, beta1, (num, den)) == branch_turns(
            [(alpha1, beta1), (1, beta2)])


def test_oracles_import_nothing_from_exact_or_machin():
    # The branch and power oracles are independent references only while
    # tests/oracles.py builds them without the code they check.
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"machinpi.exact", "machinpi.machin"}


def test_every_private_helper_is_called_elsewhere():
    # A private function or method of machinpi that no other code of the
    # package names, outside its own body, is a helper left behind.
    package = Path(machin.__file__).parent
    trees = [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]

    def names(node) -> list[str]:
        return [n.id if isinstance(n, ast.Name) else n.attr if isinstance(n, ast.Attribute)
                else n.name for n in ast.walk(node)
                if isinstance(n, (ast.Name, ast.Attribute, ast.alias))]

    everywhere = [name for tree in trees for name in names(tree)]
    helpers = [node for tree in trees for top in tree.body
               for node in (top.body if isinstance(top, ast.ClassDef) else [top])
               if isinstance(node, ast.FunctionDef) and node.name.startswith("_")
               and not node.name.endswith("__")]
    assert helpers
    unused = [node.name for node in helpers
              if everywhere.count(node.name) == names(node).count(node.name)]
    assert not unused


def test_cli_import_loads_no_code_generation_modules():
    # Every command pays for what `import machinpi.cli` loads; the value
    # types are built without dataclasses, which would load inspect too.
    src = Path(machin.__file__).parent.parent
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import machinpi.cli; "
            "print(sorted({'dataclasses', 'inspect', 'typing'} & set(sys.modules)))")
    run = subprocess.run([sys.executable, "-S", "-c", code, str(src)],
                         capture_output=True, text=True, check=True)
    assert run.stdout == "[]\n"


_X = FixedReal(5, 3, 1)
VALUE_TYPES = {
    "FixedReal": (FixedReal, (5, 3, 1)),
    "MachinFormula": (MachinFormula, (((4, Fraction(5)), (-1, Fraction(239))),)),
    "FormulaRecord": (FormulaRecord, (1, 3, 1, "nearest", Fraction(5), "-0.1", ("-239", "1"),
                                      (3, 1), "-239", True, 2.0, "machinpi 0.1.0")),
    "SeriesResult": (SeriesResult, (_X, 3, 1.5, (3,))),
    "RadicalState": (RadicalState, (3, _X, _X, _X)),
    "U1Selection": (U1Selection, (Fraction(5), _X)),
    "ConvergenceReport": (ConvergenceReport, (Fraction(5), 2.0, 2.0, ((1, 2),), 0.1, True)),
}


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_type_contract(name, monkeypatch):
    # Each value type is built by positional or keyword arguments, equal
    # fields give equal objects with one hash, its repr names the fields,
    # and no field can be assigned.  The two types that keep a proof prove
    # each copy again, and FixedReal checks its scale and error and is no
    # sequence.
    cls, values = VALUE_TYPES[name]
    fields = dict(zip(cls._fields, values))
    made = cls(*values)
    assert made == cls(**fields) and hash(made) == hash(cls(**fields))
    assert copy.copy(made) == made
    assert tuple(getattr(made, field) for field in cls._fields) == values
    assert repr(made) == f"{name}({', '.join(f'{k}={v!r}' for k, v in fields.items())})"
    with pytest.raises(AttributeError):
        setattr(made, cls._fields[0], values[0])
    if cls in (MachinFormula, FormulaRecord):
        module, check = ((machin, "verify_formula") if cls is MachinFormula
                         else (records, "check_record"))
        calls, original = [], getattr(module, check)
        monkeypatch.setattr(module, check, lambda value: calls.append(original(value)))
        made.proof
        made.proof
        made.__replace__().proof
        copy.copy(made).proof
        assert len(calls) == 3
    if cls is FixedReal:
        assert FixedReal(5, 3) == made.__replace__(err_ulp=0)
        for bad in ({"scale": -1}, {"err_ulp": -1}):
            with pytest.raises(ValueError):
                made.__replace__(**bad)
        for not_a_sequence in (len, iter, lambda x: x * 2, lambda x: x < x):
            with pytest.raises(TypeError):
                not_a_sequence(made)


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


def _product(terms) -> tuple[int, int]:
    """G, the product of (p + qi)**|alpha| over the terms, conjugated
    where alpha < 0, by the oracles' repeated multiplication."""
    g = (1, 0)
    for alpha, beta in terms:
        beta = Fraction(beta)
        c, d = gi_pow_naive((beta.numerator, beta.denominator), abs(alpha))
        g = gi_mul_naive(g, (c, -d) if alpha < 0 else (c, d))
    return g


def _rotation_of(g: tuple[int, int]) -> tuple[Fraction, Fraction]:
    """G**2 / |G|**2, the rotation the certificate G stands for."""
    re, im = g
    n = re * re + im * im
    return Fraction(re * re - im * im, n), Fraction(2 * re * im, n)


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
        assert verifies(MachinFormula(terms)) == reference == valid

    @given(st.lists(st.tuples(small_alphas, small_betas), min_size=1, max_size=3))
    def test_random_small_formulas(self, terms):
        # The failure text names G's sizes, so it pins the G that
        # verify_formula formed to the one whose rotation is checked here.
        reference = rotation_product_reference(terms)
        turns = branch_turns(terms) if reference == (0, 1) else 0
        re, im = _product(terms)
        assert _rotation_of((re, im)) == reference
        sizes = f"G.re ({re.bit_length()} bits) {{}} G.im ({im.bit_length()} bits)"
        if reference != (0, 1):
            expected = "exact product check failed: " + sizes.format("!=")
        elif turns:
            expected = (f"branch check failed: the sum is pi/4 {turns:+d}*pi "
                        "(the product check holds: " + sizes.format("==") + ")")
        else:
            assert verifies(_formula(terms))
            return
        with pytest.raises(UnverifiedFormula) as failure:
            verify_formula(_formula(terms))
        assert str(failure.value) == expected

    @given(st.sampled_from(VALID_SMALL_FORMULAS), small_alphas, small_betas,
           st.booleans())
    def test_valid_formulas_with_cancelling_pair(self, base, alpha, beta, flip):
        # alpha*arctan(1/beta) cancels against -alpha*arctan(1/beta), spelled
        # with either the coefficient or the argument negated.
        cancel = (-alpha, beta) if flip else (alpha, -beta)
        terms = base + ((alpha, beta), cancel)
        assert rotation_product_reference(terms) == (0, 1)
        assert verifies(_formula(terms))
