"""Acceptance gate: one test per exit criterion, each printing a
PASS/FAIL line (run with -s to see them all).

Criteria 6 and 10 carry sub-assertions that are mutually inconsistent
with the rest of the contract (residual-sign bookkeeping at depths 10
and 17, and the mid-ordering of the three series at small arguments);
they are asserted verbatim anyway and fail honestly.  The analysis
lives in the engineering notes, not here.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from fractions import Fraction

from machinpi import cli
from machinpi.analysis import compare_methods, measure_convergence
from machinpi.cli import generate_record
from machinpi.exact import decimal_head, fraction_from_text
from machinpi.machin import (MachinFormula, second_term_text, solve_second_term, solve_u2,
                             verify_formula)
from machinpi.radicals import eval_radicals, select_u1
from machinpi.realnum import FixedReal
from machinpi.records import build_record, write_record
from machinpi.series import (
    arctan_conjugate,
    digits_per_term,
    pi_from_radicals,
    scale_for_digits,
)

# Leading digits of pi as published everywhere; also re-derived here by
# two independent formulas (criterion 9).
PUBLISHED_PI_100 = (
    "3."
    "1415926535897932384626433832795028841971693993751058209749445923"
    "078164062862089986280348253421170679"
)

RADICAL_20 = {
    2: "2.41421356237309504880",
    3: "5.02733949212584810451",
    5: "20.35546762498718817831",
    10: "651.89813557739378661810",
    17: "83443.02679976888016443942",
    23: "5340353.71544080937733612922",
}

SELECTION_POLICY = {2: 10, 3: 1, 5: 1, 10: 1, 17: 1, 23: 10}


@contextmanager
def criterion(number: str, description: str):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:>3}: FAIL  {description}")
        raise
    print(f"ACCEPTANCE {number:>3}: PASS  {description}")


def test_criterion_1_classic_reproduction(tmp_path):
    with criterion("1", "generate 3 and generate 2 --den 10 both close at -239"):
        start = time.perf_counter()
        assert cli.main(["generate", "3", "--out", str(tmp_path / "k3.json")]) == 0
        assert cli.main(
            ["generate", "2", "--den", "10", "--out", str(tmp_path / "k2.json")]
        ) == 0
        elapsed = time.perf_counter() - start
        from machinpi.records import load_record

        k3 = load_record(tmp_path / "k3.json")
        k2 = load_record(tmp_path / "k2.json")
        assert k3.u1 == 5 and k3.u2 == -239 and k3.verified
        assert k2.u1 == Fraction(24, 10) and k2.u2 == -239 and k2.verified
        assert elapsed < 1.0


def test_criterion_2_depth_five_exact():
    with criterion("2", "depth-5 second argument exact with 21/20 digit counts"):
        start = time.perf_counter()
        u2 = solve_u2(Fraction(20), 5)
        elapsed = time.perf_counter() - start
        assert u2 == Fraction(-945426570789006031681, 13176476709447727679)
        assert u2 == Fraction(u2.numerator, u2.denominator)  # reduced by type
        assert len(str(abs(u2.numerator))) == 21
        assert len(str(u2.denominator)) == 20
        assert elapsed < 1.0


def test_criterion_3_depth_ten():
    with criterion("3", "depth-10 second argument: 1364/1361 digits, 20-digit head"):
        start = time.perf_counter()
        num, den = second_term_text(1 << 9, Fraction(651))
        elapsed = time.perf_counter() - start
        assert len(num.lstrip("-")) == 1364
        assert len(den) == 1361
        assert decimal_head(num, den) == "-922.88953146392823766085"
        assert elapsed < 10.0


def test_criterion_4_depth_seventeen():
    with criterion("4", "depth-17 second argument: 312665/312658 digits"):
        start = time.perf_counter()
        num, den = second_term_text(1 << 16, Fraction(83443))
        assert len(num.lstrip("-")) == 312665
        assert len(den) == 312658
        assert decimal_head(num, den) == "-3.96432252145804935647e6"
        verify_formula(  # raises UnverifiedFormula if either check fails
            MachinFormula.two_term(17, Fraction(83443), fraction_from_text(num, den))
        )
        elapsed = time.perf_counter() - start
        assert elapsed < 1800.0


def test_criterion_5_counterexample_reproduction():
    with criterion("5", "random-integer substitution reproduced exactly"):
        beta2 = solve_second_term(7, Fraction(10 ** 9))
        assert beta2 == Fraction(
            1000000006999999978999999965000000035000000020999999992999999999,
            999999992999999979000000035000000034999999978999999993000000001,
        )
        # the printed value has a 64-digit numerator over 63 digits
        num, den = second_term_text(7, Fraction(10 ** 9))
        assert len(num) == 64
        assert len(den) == 63
        assert decimal_head(num, den) == "1.00000001400000009800"


def test_criterion_6_radical_targets():
    with criterion("6a", "all six tower values match to 20 digits"):
        for k, expected in RADICAL_20.items():
            state = eval_radicals(k, 20)
            assert state.c_k.to_decimal(20) == (expected, True)


def test_criterion_6_epsilon_signs():
    with criterion("6b", "residual signs: negative except depth 17"):
        signs = {}
        for k, den in SELECTION_POLICY.items():
            sel = select_u1(eval_radicals(k, 26), den)
            signs[k] = sel.epsilon.value > 0
        for k in (2, 3, 5, 10, 23):
            assert not signs[k], f"residual at depth {k} expected negative"
        assert signs[17], "residual at depth 17 expected positive"


def test_criterion_7_convergence_rates(pi_reference_300):
    with criterion("7", "measured rates round to 1,2,3,6; predicted give 10,14"):
        expected = {2: 1, 3: 2, 5: 3, 10: 6}
        for k, nominal in expected.items():
            record = None
            for den in (1, 10):
                try:
                    record = generate_record(k, den, "nearest")
                    break
                except Exception:
                    continue
            assert record is not None
            report = measure_convergence(record.formula(), 20, pi_reference_300)
            assert abs(round(report.measured_digits_per_term) - nominal) <= 1
        assert abs(round(digits_per_term(Fraction(83443))) - 10) <= 1
        assert abs(round(digits_per_term(Fraction(53403537, 10))) - 14) <= 1


def test_criterion_8_tower_at_depth_forty(pi_text_300):
    with criterion("8", "depth-40 tower gains >= 23 digits per added term"):
        start = time.perf_counter()
        scale = scale_for_digits(200)
        correct = []
        for terms in range(2, 7):
            # The midpoint's digits measure what each term adds (47, 72,
            # 97, 120, 146); the certified text would lose two at 6 terms.
            v = pi_from_radicals(40, terms, scale).value
            text, _ = FixedReal(v.mantissa, v.scale).to_decimal(170)
            matching = 0
            for a, b in zip(text, pi_text_300):
                if a != b:
                    break
                if a != ".":
                    matching += 1
            correct.append(matching - 1)
        gains = [b - a for a, b in zip(correct, correct[1:])]
        elapsed = time.perf_counter() - start
        assert all(g >= 23 for g in gains), gains
        assert elapsed < 60.0


def test_criterion_9_independent_formula_oracle(tmp_path, capsys):
    with criterion("9", "two independent formulas agree on 100 digits"):
        k3_path = tmp_path / "k3.json"
        assert cli.main(["generate", "3", "--out", str(k3_path)]) == 0

        u1 = Fraction(651)
        u2_text = second_term_text(1 << 9, u1)
        u2 = fraction_from_text(*u2_text)
        verify_formula(MachinFormula.two_term(10, u1, u2))  # raises if it fails
        k10 = build_record(
            k=10, denominator_policy=1, rounding="floor",
            u1=u1, epsilon_decimal="-0.89813557739378661810", u2_text=u2_text,
            verified=True,
            predicted_rate=digits_per_term(u1),
        )
        k10_path = write_record(k10, tmp_path / "k10.json")
        capsys.readouterr()

        assert cli.main(
            ["compute-pi", "--formula", str(k10_path), "--digits", "100"]
        ) == 0
        from_k10 = capsys.readouterr().out.strip()
        assert cli.main(
            ["compute-pi", "--formula", str(k3_path), "--digits", "100"]
        ) == 0
        from_k3 = capsys.readouterr().out.strip()

        assert from_k10 == from_k3 == PUBLISHED_PI_100


def test_criterion_10_method_comparison():
    with criterion("10", "series error ordering and three-order gap"):
        for x in (Fraction(1, 5), Fraction(1, 239)):
            rows = dict(compare_methods(x, 10, 512))
            assert rows["conjugate"] < rows["euler"], f"x={x}"
            assert rows["euler"] < rows["gregory"], f"x={x}"
        gap_rows = dict(compare_methods(Fraction(1, 239), 10, 512))
        assert gap_rows["euler"] / gap_rows["conjugate"] >= 1000


def test_criterion_11_property_suites(pi_text_300):
    with criterion("11", "exactness, containment, and round-trip spot checks"):
        from machinpi.exact import gaussian_power

        # unit-circle preservation and the power addition law: the rotation
        # z = (u + i)/(u - i) is g**2 / |g|**2 with g = p + qi for u = p/q
        for u, n in ((Fraction(5), 17), (Fraction(24, 10), 9), (Fraction(7, 3), 30)):
            p, q = u.numerator, u.denominator
            re, im = gaussian_power(p, q, 2 * n)
            assert re * re + im * im == (p * p + q * q) ** (2 * n)
            (a, b), (c, d) = gaussian_power(p, q, n), gaussian_power(p, q, 5)
            assert (a * c - b * d, a * d + b * c) == gaussian_power(p, q, n + 5)

        # fixed-point containment through a mixed pipeline
        scale = 192
        a, b = Fraction(7, 3), Fraction(5, 11)
        fa = FixedReal.from_fraction(a, scale)
        fb = FixedReal.from_fraction(b, scale)
        got = (fa + fb + fa) / (fb + FixedReal.from_int(1, scale))
        assert got.lower <= (a + b + a) / (b + 1) <= got.upper

        # arctangent addition identity within tracked error
        c, d = Fraction(1, 7), Fraction(1, 9)
        lhs = arctan_conjugate(c, 12, 256).value + arctan_conjugate(d, 12, 256).value
        rhs = arctan_conjugate((c + d) / (1 - c * d), 12, 256).value
        assert abs(lhs.mantissa - rhs.mantissa) <= lhs.err_ulp + rhs.err_ulp

        # every generated record re-verifies
        for k in (2, 3, 5, 8, 10):
            den = SELECTION_POLICY.get(k, 1)
            record = generate_record(k, den, "nearest")
            assert record.verified
            verify_formula(record.formula())  # raises if either check fails
