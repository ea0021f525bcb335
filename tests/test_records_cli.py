from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import time
import weakref
from fractions import Fraction
from functools import partial
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import machinpi
from machinpi import cli, errors, machin, series
from machinpi.cli import generate_record
from machinpi.errors import (DigitCountMismatch, EpsilonTooLarge, NotExactlyVerifiable,
                             RecordParseError, UnverifiedFormula)
from machinpi.radicals import eval_radicals, select_u1
from machinpi.records import (
    SIDECAR_THRESHOLD_DIGITS,
    build_record,
    check_record,
    load_record,
    write_record,
)
from machinpi.series import pi_digits_from_formula, pi_from_formula

from oracles import (big_int_text, branch_turns, int_text_cap, pi_digits,
                     rotation_power_reference, rotation_product_reference)
from test_golden_outputs import COMPUTE_PI, RECORD_FILES, RECORDS


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


def _patch_everywhere(monkeypatch, function, replacement) -> None:
    """Bind `replacement` in place of `function` in every machinpi module
    that imports it, so a spy sees each call whoever makes it."""
    for module in [m for name, m in sys.modules.items() if name.startswith("machinpi")]:
        for name, value in list(vars(module).items()):
            if value is function:
                monkeypatch.setattr(module, name, replacement)


def test_repeated_calls_leave_no_cyclic_garbage(capsys):
    # Garbage left to the cyclic collector (a parser per call left about
    # 225 objects) raises a long-lived caller's peak RSS call by call.
    run_cli("compute-pi", "--k", "3", "--digits", "5")
    gc.collect()
    gc.disable()
    try:
        for _ in range(10):
            assert run_cli("compute-pi", "--k", "3", "--digits", "5") == 0
        assert gc.collect() == 0
    finally:
        gc.enable()


@pytest.fixture()
def k3_record_path(tmp_path):
    record = generate_record(3, 1, "nearest")
    return write_record(record, tmp_path / "k3.json")


class TestRecords:
    def test_round_trip_bit_identical(self, tmp_path):
        record = generate_record(3, 1, "nearest")
        p1 = write_record(record, tmp_path / "a.json")
        p2 = write_record(load_record(p1), tmp_path / "b.json")
        assert p1.read_bytes() == p2.read_bytes()

    def test_generated_record_contents(self, tmp_path):
        record = generate_record(3, 1, "nearest")
        assert record.u1 == 5
        assert record.u2 == -239
        assert record.verified is True
        assert record.epsilon_decimal == "-0.02733949212584810451"
        assert record.u2_digit_counts == (3, 1)
        check_record(record)

    def test_sidecar_written_and_verified(self, tmp_path):
        # Depth 13 is the first whose u2 parts reach the sidecar threshold.
        record = generate_record(13, 1, "nearest")
        assert min(record.u2_digit_counts) >= SIDECAR_THRESHOLD_DIGITS
        path = write_record(record, tmp_path / "big.json")
        for part in ("num", "den"):
            sidecar = tmp_path / f"big.u2{part}.txt"
            assert sidecar.exists()
            assert sidecar.read_text().endswith("\n")
        loaded = load_record(path)
        assert loaded.u2 == record.u2

    def test_sidecar_tamper_detected(self, tmp_path):
        huge = ("1" + "0" * (SIDECAR_THRESHOLD_DIGITS - 1) + "7", "3")
        record = build_record(
            k=2, denominator_policy=1, rounding="nearest",
            u1=Fraction(12, 5), epsilon_decimal="0", u2_text=huge,
            verified=False, predicted_rate=1.0,
        )
        path = write_record(record, tmp_path / "big.json")
        sidecar = tmp_path / "big.u2num.txt"
        sidecar.write_text(sidecar.read_text().replace("7", "8", 1))
        with pytest.raises(RecordParseError):
            load_record(path)

    def test_digit_count_mismatch_detected(self, tmp_path, k3_record_path):
        payload = json.loads(k3_record_path.read_text())
        payload["u2_digit_counts"]["num_digits"] = 4
        k3_record_path.write_text(json.dumps(payload))
        with pytest.raises(DigitCountMismatch):
            check_record(load_record(k3_record_path))

    def test_truncated_file_is_parse_error(self, tmp_path):
        bad = tmp_path / "cut.json"
        bad.write_text('{"schema_version": 1, "k": 3')
        with pytest.raises(RecordParseError):
            load_record(bad)

    def test_missing_file_is_parse_error(self, tmp_path):
        with pytest.raises(RecordParseError):
            load_record(tmp_path / "absent.json")


class TestGenerateCommand:
    def test_generate_classic(self, tmp_path, capsys):
        out = tmp_path / "k3.json"
        assert run_cli("generate", "3", "--out", str(out)) == 0
        record = load_record(out)
        assert record.u1 == 5 and record.u2 == -239 and record.verified
        printed = capsys.readouterr().out
        assert "u1 = 5" in printed and "-239" in printed

    @staticmethod
    def blur_towers(monkeypatch, blur: Fraction, count: int) -> list[int]:
        """Widen c_k by blur in the first `count` towers generate asks
        for; returns the digits of every tower asked for."""
        requested = []
        tower = cli.eval_radicals

        def blurred(k, digits):
            requested.append(digits)
            state = tower(k, digits)
            if len(requested) > count:
                return state
            ulps = math.ceil(blur * 2 ** state.c_k.scale)
            return dataclasses.replace(state, c_k=state.c_k.widened(ulps))

        monkeypatch.setattr(cli, "eval_radicals", blurred)
        return requested

    @pytest.mark.parametrize("blur", [Fraction(1), Fraction(1, 10 ** 18)],
                             ids=["ambiguous-rounding", "uncertain-residual"])
    def test_selection_retries_until_certain(self, tmp_path, monkeypatch, blur):
        # Either u1's rounding or the residual's 20 digits are uncertain in
        # the first tower; the one at 8 more digits must write the golden
        # k = 3 record byte for byte.
        requested = self.blur_towers(monkeypatch, blur, 1)
        out = tmp_path / "k3.json"
        assert run_cli("generate", "3", "--out", str(out)) == 0
        assert requested == [26, 34]
        assert hashlib.sha256(out.read_bytes()).hexdigest() == RECORD_FILES["k3.json"]

    def test_selection_gives_up_after_four_towers(self, tmp_path, monkeypatch, capsys):
        requested = self.blur_towers(monkeypatch, Fraction(1), 4)
        out = tmp_path / "k3.json"
        assert run_cli("generate", "3", "--out", str(out)) == cli.EXIT_PRECISION
        assert requested == [26, 34, 42, 50]
        assert not out.exists()
        assert "could not pin" in capsys.readouterr().err

    def test_generate_depth_two_needs_finer_grid(self, tmp_path):
        assert run_cli(
            "generate", "2", "--out", str(tmp_path / "x.json")
        ) == cli.EXIT_EPSILON
        assert run_cli(
            "generate", "2", "--den", "10", "--out", str(tmp_path / "k2.json")
        ) == 0
        record = load_record(tmp_path / "k2.json")
        assert record.u1 == Fraction(24, 10) and record.u2 == -239

    def test_generate_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run_cli("generate", "5", "--out", str(a)) == 0
        assert run_cli("generate", "5", "--out", str(b)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_generate_depth_five_record_fields(self, tmp_path):
        out = tmp_path / "k5.json"
        assert run_cli("generate", "5", "--out", str(out)) == 0
        record = load_record(out)
        assert record.u2_digit_counts == (21, 20)
        assert record.u2_decimal_head == "-71.75109034353024503462"
        assert record.verified

    def test_generate_respects_workdir_env(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("MACHINPI_DIR", str(tmp_path))
        assert run_cli("generate", "3") == 0
        assert (tmp_path / "formula_k3.json").exists()

    def test_runs_as_module(self, tmp_path):
        src = str(Path(machinpi.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src, "MACHINPI_DIR": str(tmp_path)}
        proc = subprocess.run([sys.executable, "-m", "machinpi", "generate", "3"],
                              env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert "u1 = 5" in proc.stdout
        assert (tmp_path / "formula_k3.json").exists()

    @pytest.mark.parametrize("mask, mode", [(0o022, "-rw-r--r--"), (0o077, "-rw-------")])
    def test_generate_honours_umask(self, tmp_path, mask, mode):
        # The record and both k = 14 sidecars get the mode open() would.
        previous = os.umask(mask)
        try:
            assert run_cli("generate", "14", "--out", str(tmp_path / "k14.json")) == 0
        finally:
            os.umask(previous)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["k14.json", "k14.u2den.txt", "k14.u2num.txt"]
        for path in tmp_path.iterdir():
            assert stat.filemode(path.stat().st_mode) == mode


class TestVerifyCommand:
    def test_verify_ok(self, k3_record_path):
        assert run_cli("verify", str(k3_record_path)) == 0

    def test_verify_detects_perturbed_value(self, k3_record_path):
        payload = json.loads(k3_record_path.read_text())
        payload["u2"]["num"]["value"] = "-240"
        payload["u2_digit_counts"]["num_digits"] = 3
        k3_record_path.write_text(json.dumps(payload))
        assert run_cli("verify", str(k3_record_path)) == cli.EXIT_VERIFICATION

    def test_verify_detects_digit_count_drift(self, k3_record_path):
        payload = json.loads(k3_record_path.read_text())
        payload["u2_digit_counts"]["den_digits"] = 2
        k3_record_path.write_text(json.dumps(payload))
        assert run_cli("verify", str(k3_record_path)) == cli.EXIT_DIGIT_COUNT

    def test_failure_message_stays_short(self, tmp_path, capsys):
        # One changed digit in a depth-13 u2 (about 15,000 digits, so
        # sidecar-backed) must report a summary, not the certificate.
        record = generate_record(13, 1, "nearest")
        num, den = record.u2.numerator, record.u2.denominator
        with big_int_text():
            u2_text = (str(num + 10 ** 5000), str(den))
        perturbed = build_record(
            k=13, denominator_policy=1, rounding="nearest", u1=record.u1,
            epsilon_decimal=record.epsilon_decimal, u2_text=u2_text,
            verified=True, predicted_rate=record.predicted_rate,
        )
        path = write_record(perturbed, tmp_path / "k13.json")
        assert (tmp_path / "k13.u2num.txt").exists()
        capsys.readouterr()
        assert run_cli("verify", str(path)) == cli.EXIT_VERIFICATION
        err = capsys.readouterr().err
        assert "exact product check" in err
        assert len(err.encode()) < 1024

    @pytest.mark.parametrize("command", [
        ("verify",), ("compute-pi", "--digits", "20", "--formula"),
    ])
    def test_formula_valid_only_modulo_pi_exits_4(self, tmp_path, capsys, command):
        # u2 = -31/17 closes u1 = 1/2 at depth 3 only modulo pi: the terms
        # sum to 5 pi/4, and compute-pi printed 5 pi with exit 0.
        record = build_record(
            k=3, denominator_policy=2, rounding="nearest", u1=Fraction(1, 2),
            epsilon_decimal="0", u2_text=("-31", "17"), verified=True,
            predicted_rate=0.0,
        )
        path = write_record(record, tmp_path / "k3.json")
        capsys.readouterr()
        assert run_cli(*command, str(path)) == cli.EXIT_VERIFICATION
        captured = capsys.readouterr()
        assert captured.out == "" and "branch check failed" in captured.err

    def test_verify_parse_failure(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("not json")
        assert run_cli("verify", str(bad)) == cli.EXIT_PARSE


def _odd_prime_factor(n: int) -> int:
    """The least odd prime factor of n, which must have one."""
    while n % 2 == 0:
        n //= 2
    return next((d for d in range(3, math.isqrt(n) + 1, 2) if n % d == 0), n)


def _with_u2_parts(record, num: int, den: int):
    """The record with u2 stored as num/den exactly as given (no
    reduction) and digit counts that match those parts."""
    with big_int_text():
        u2_text = (str(num), str(den))
    counts = (len(u2_text[0].lstrip("-")), len(u2_text[1]))
    return dataclasses.replace(record, u2_text=u2_text, u2_digit_counts=counts)


class TestLowestTermsCertificate:
    """Loading runs no gcd on u2; check_record, which load_record runs,
    refuses a u2 with both parts even before any other check, then
    re-solves u2 from k and u1 (machin.check_second_term) and compares
    the stored parts with it, which proves lowest terms.  That every
    generated record passes is test_digits_from_every_depth_match_machin's
    exit 0."""

    @pytest.fixture(scope="class")
    def generated(self):
        return {k: generate_record(k, 1, "nearest") for k in (3, 13)}

    @staticmethod
    def _factors(record):
        """Common factors to scale u2 by; norm is p**2 + q**2 for u1 = p/q."""
        p, q = record.u1.numerator, record.u1.denominator
        norm = p * p + q * q
        return {"2": 2, "3": 3, "odd_prime_of_norm": _odd_prime_factor(norm),
                "norm": norm}

    @pytest.mark.parametrize("k", [3, 13])
    @pytest.mark.parametrize("factor", ["2", "3", "odd_prime_of_norm", "norm"])
    @pytest.mark.parametrize("command", [
        ("verify",), ("compute-pi", "--digits", "20", "--formula"),
    ])
    def test_scaled_second_term_exits_3(self, tmp_path, capsys, generated, k,
                                        factor, command):
        record = generated[k]
        g = self._factors(record)[factor]
        u2 = record.u2
        scaled = _with_u2_parts(record, g * u2.numerator, g * u2.denominator)
        path = write_record(scaled, tmp_path / "f.json")
        capsys.readouterr()
        assert run_cli(*command, str(path)) == cli.EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == "" and "lowest terms" in captured.err

    @pytest.mark.parametrize("factor", [2, 3, 13, 26, 2 ** 5 * 13])
    def test_check_record_refuses_unreduced_record_in_memory(self, generated, factor):
        record = generated[3]  # u1 = 5, u2 = -239; 5**2 + 1 = 2 * 13
        u2 = record.u2
        with pytest.raises(RecordParseError, match="lowest terms"):
            check_record(_with_u2_parts(record, factor * u2.numerator,
                                        factor * u2.denominator))

    @pytest.mark.parametrize("k", [3, 13])
    def test_load_record_returns_no_unreduced_second_term(self, tmp_path, generated, k):
        # The library entry point, not only the CLI, refuses u2 scaled by
        # 3, and what it does return is a normalised Fraction.
        record = generated[k]
        u2 = record.u2
        path = write_record(_with_u2_parts(record, 3 * u2.numerator,
                                           3 * u2.denominator), tmp_path / "g3.json")
        with pytest.raises(RecordParseError, match="lowest terms"):
            machinpi.load_record(path)
        # Fraction equality compares numerators and denominators as stored.
        loaded = machinpi.load_record(write_record(record, tmp_path / "g1.json"))
        assert loaded.u2 == u2

    def test_unreduced_and_unverifiable(self, tmp_path, generated):
        # An odd common factor is found only after the exact check, so a
        # pair that also fails it exits 4; two even parts exit 3 before
        # any other check.
        record = generated[3]
        r, s = record.u2.numerator, record.u2.denominator
        for g, code in ((3, cli.EXIT_VERIFICATION), (2, cli.EXIT_PARSE)):
            path = write_record(_with_u2_parts(record, g * (r + 1), g * s),
                                tmp_path / f"g{g}.json")
            assert run_cli("verify", str(path)) == code


def _record_with_u2(k: int, u1: Fraction, num: int, den: int):
    """A record of depth k and first argument u1 whose u2 is stored as
    num/den exactly as given."""
    base = build_record(k=k, denominator_policy=1, rounding="nearest", u1=u1,
                        epsilon_decimal="0", u2_text=("1", "1"), verified=True,
                        predicted_rate=1.0)
    return _with_u2_parts(base, num, den)


def _check_verdict(record) -> int:
    """The exit code check_record's outcome maps to: 0, 3 or 4."""
    try:
        check_record(record)
    except RecordParseError:
        return cli.EXIT_PARSE
    except (UnverifiedFormula, NotExactlyVerifiable):
        return cli.EXIT_VERIFICATION
    return cli.EXIT_OK


def _oracle_verdict(k: int, u1: Fraction, num: int, den: int) -> int:
    """The same verdict from the oracles alone: two even parts exit 3,
    a rotation product other than i or a sum of pi/4 + n*pi with n != 0
    exits 4, and a valid pair that a gcd reduces exits 3."""
    if not (num | den) & 1:
        return cli.EXIT_PARSE
    terms = ((1 << (k - 1), u1), (1, Fraction(num, den)))
    if rotation_product_reference(terms) != (0, 1) or branch_turns(terms):
        return cli.EXIT_VERIFICATION
    return cli.EXIT_OK if math.gcd(num, den) == 1 else cli.EXIT_PARSE


def _closing_parts(k: int, u1: Fraction) -> tuple[int, int] | None:
    """(r, s) in lowest terms, s > 0, with r/s = 2/(z - i) - i for the
    rotation z = ((u1 + i)/(u1 - i))**(2**(k-1)) (oracles), or None when
    z = +-i leaves no nonzero second argument."""
    c, d = rotation_power_reference(u1, 1 << (k - 1))
    if c == 0:
        return None
    u2 = 2 * c / (c * c + (d - 1) ** 2)
    return u2.numerator, u2.denominator


@st.composite
def _second_terms(draw):
    """(k, u1, r, s): u1 = p/q coprime, u2 = r/s != 0 with s > 0 stored
    unreduced, near the closing term (scaled, perturbed) or anywhere."""
    k = draw(st.integers(1, 6))
    p = draw(st.integers(-60, 60).filter(bool))
    q = draw(st.integers(1, 60))
    assume(math.gcd(p, q) == 1)
    u1 = Fraction(p, q)
    closing = _closing_parts(k, u1)
    if closing is None or draw(st.booleans()) and draw(st.booleans()):
        r = draw(st.integers(-500, 500).filter(bool))
        return k, u1, r, draw(st.integers(1, 500))
    g = draw(st.integers(1, 6))
    r, s = g * closing[0] + draw(st.integers(-1, 1)), g * closing[1]
    assume(r != 0)
    return k, u1, r, s


class TestRecordCheckBySolve:
    """check_record re-solves u2 instead of forming the product
    (p + qi)**2**(k-1) (r + si); its verdict must be the one the
    oracles' rotation product, branch estimate and gcd give."""

    @given(_second_terms())
    @settings(max_examples=300)
    def test_verdict_matches_oracles(self, case):
        k, u1, r, s = case
        expected = _oracle_verdict(k, u1, r, s)
        assert _check_verdict(_record_with_u2(k, u1, r, s)) == expected

    @pytest.mark.parametrize("k, u1, r, s, code", [
        (3, Fraction(5), -3 * 239, 3, cli.EXIT_PARSE),          # scaled by 3
        (3, Fraction(5), -3 * 239 + 1, 3, cli.EXIT_VERIFICATION),  # and perturbed
        (3, Fraction(1, 2), -31, 17, cli.EXIT_VERIFICATION),    # pi/4 + pi
        (3, Fraction(5), -2 * 239, 2, cli.EXIT_PARSE),          # scaled by 2
        (3, Fraction(5), -239, 1, cli.EXIT_OK),
        (2, Fraction(1), -1, 1, cli.EXIT_OK),                   # 2 arctan 1 - arctan 1
        (1, Fraction(2), 3, 1, cli.EXIT_OK),                    # Euler's arctan 1/2 + 1/3
    ])
    def test_explicit_verdicts(self, k, u1, r, s, code):
        assert _oracle_verdict(k, u1, r, s) == code
        assert _check_verdict(_record_with_u2(k, u1, r, s)) == code

    @pytest.mark.parametrize("u1", [Fraction(1), Fraction(-1)])
    def test_degenerate_first_term_exits_4(self, tmp_path, capsys, u1):
        # arctan(1) is pi/4 alone, and arctan(-1) is pi/4 less a right
        # angle: solve_second_term calls both degenerate (exit 6), but a
        # stored u2 != 0 simply fails the product check.
        path = write_record(_record_with_u2(1, u1, 1, 1), tmp_path / "k1.json")
        capsys.readouterr()
        assert run_cli("verify", str(path)) == cli.EXIT_VERIFICATION
        assert "exact product check failed" in capsys.readouterr().err

    def test_power_over_the_limit_exits_4(self, k3_record_path, capsys, monkeypatch):
        # solve_u2 refuses such a power as a usage error (ValueError, exit
        # 2); a stored formula is one that cannot be verified.
        monkeypatch.setattr(machin, "MAX_POWER_BITS", 8)
        with pytest.raises(NotExactlyVerifiable, match="limit"):
            load_record(k3_record_path)
        capsys.readouterr()
        assert run_cli("verify", str(k3_record_path)) == cli.EXIT_VERIFICATION
        assert "limit" in capsys.readouterr().err

    def test_record_path_forms_no_big_gaussian_product(self, tmp_path, monkeypatch):
        # A product of 10,000-bit Gaussian integers is what the check no
        # longer forms in int.  Every such product is made from
        # gaussian_power's results, so a result that big marks one.
        power = machinpi.exact.gaussian_power

        def small_only(re, im, n):
            result = power(re, im, n)
            if max(abs(part).bit_length() for part in result) > 10_000:
                raise AssertionError("big Gaussian product formed")
            return result

        _patch_everywhere(monkeypatch, power, small_only)
        path = str(tmp_path / "k13.json")
        with contextlib.redirect_stdout(io.StringIO()):
            assert run_cli("generate", "13", "--out", path) == 0
            assert run_cli("verify", path) == 0
        with pytest.raises(AssertionError, match="big Gaussian product"):
            machin.verify_formula(load_record(path).formula())


def test_generate_and_verify_stay_in_decimal(tmp_path, monkeypatch):
    # generate and verify solve, write and compare u2 as decimal text: no
    # int Gaussian power is formed and no u2 part is converted between
    # int and text, yet the record is byte for byte the pinned one.  Only
    # the residual's 20 digits (FixedReal.to_decimal) may use the codec.
    def refuse(*args):
        raise AssertionError("binary u2 path taken")

    def small_only(convert):
        def guarded(value):
            if len(value) > 64 if isinstance(value, str) else value.bit_length() > 212:
                refuse()
            return convert(value)
        return guarded

    for convert in (machinpi.exact.int_to_text, machinpi.exact.text_to_int):
        _patch_everywhere(monkeypatch, convert, small_only(convert))
    _patch_everywhere(monkeypatch, machinpi.exact.gaussian_power, refuse)
    path = tmp_path / "k13.json"
    assert run_cli("generate", "13", "--out", str(path)) == 0
    assert run_cli("verify", str(path)) == 0
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.iterdir()} == {
        name: digest for name, digest in RECORD_FILES.items() if name.startswith("k13.")}
    with pytest.raises(AssertionError, match="binary u2 path"):
        load_record(path).u2  # the Fraction is converted on request


@pytest.mark.parametrize("budget", ["--digits 1000", "--terms 5"])
def test_compute_pi_reads_u2_from_its_leading_digits(tmp_path, monkeypatch, capsys, budget):
    # The record hands the series u2's stored text, which reads its
    # leading digits and lengths: no text of over 2000 digits becomes an
    # int, though u2's parts have about 33,000 at k = 14, and the output
    # is the pinned one.
    path = write_record(generate_record(14, 1, "nearest"), tmp_path / "k14.json")
    convert = machinpi.exact.text_to_int

    def short_only(text):
        if len(text) > 2000:
            raise AssertionError(f"text_to_int on {len(text)} digits")
        return convert(text)

    _patch_everywhere(monkeypatch, convert, short_only)
    capsys.readouterr()
    assert run_cli("compute-pi", "--formula", str(path), *budget.split()) == 0
    captured = capsys.readouterr()
    assert (hashlib.sha256(captured.out.encode()).hexdigest(), captured.err) == (
        COMPUTE_PI[f"k14 {budget}"])


def test_compute_pi_rates_only_short_cotangents(tmp_path, monkeypatch):
    # A record's u2 is rated at its 64-bit dyadic floor, so the squares
    # digits_per_term forms stay small though u2's parts are 110k bits.
    path = write_record(generate_record(14, 1, "nearest"), tmp_path / "k14.json")
    denominators, rate = [], series.digits_per_term

    def spy(beta):
        denominators.append(beta.denominator)
        return rate(beta)

    monkeypatch.setattr(series, "digits_per_term", spy)
    assert run_cli("compute-pi", "--formula", str(path), "--digits", "1000") == 0
    assert denominators and max(denominators) <= 1 << 64


@pytest.mark.parametrize("argv", [*RECORDS.values(), ("8", "--round", "floor")],
                         ids=[*RECORDS, "k8floor"])
def test_record_u2_rate_never_the_slowest(tmp_path, argv):
    # The rate of u2's 64-bit floor agrees with log10(1 + 4 u2**2) from
    # u2's correctly rounded float and exceeds u1's, so u1 sets every term
    # budget; k = 8 floor has the smallest |u2|/u1 of k = 2..16, 1.309.
    path = tmp_path / "record.json"
    assert run_cli("generate", *argv, "--out", str(path)) == 0
    record = load_record(path)
    (_, u1), (_, text) = record.terms
    rate = series._term_rate(text)
    assert abs(rate - math.log10(1 + 4 * float(record.u2) ** 2)) < 1e-12
    assert rate > series._term_rate(u1)


@pytest.mark.parametrize("k, rounding", [(3, "nearest"), (10, "floor")])
def test_unvouched_record_is_verified(tmp_path, k, rounding):
    # A loaded record carries its proof: the digits are pi's, and a u2
    # numerator changed after loading makes a copy that is proved again
    # (check_record) and is UnverifiedFormula.
    record = load_record(write_record(generate_record(k, 1, rounding), tmp_path / "r.json"))
    text, _ = pi_digits_from_formula(record, 40)
    assert text == pi_digits(40)
    num, den = record.u2_text
    altered = dataclasses.replace(record, u2_text=(str(int(num) + 2), den))
    for compute in (partial(pi_digits_from_formula, altered, 40),
                    partial(pi_from_formula, altered, 30, 256)):
        with pytest.raises(UnverifiedFormula):
            compute()


def _count_calls(monkeypatch, function) -> list:
    """Spy on `function` wherever machinpi binds it; the list grows by one
    entry per call."""
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    _patch_everywhere(monkeypatch, function, spy)
    return calls


@pytest.mark.parametrize("budget", ["--digits 1000", "--terms 5"])
def test_compute_pi_proves_a_record_once(tmp_path, monkeypatch, capsys, budget):
    # load_record proves the record through its own check, and the series
    # finds that proof cached on the record: check_record runs once per
    # request, and the general verify_formula never.
    path = write_record(generate_record(14, 1, "nearest"), tmp_path / "k14.json")
    checks = _count_calls(monkeypatch, machinpi.records.check_record)
    verifies = _count_calls(monkeypatch, machin.verify_formula)
    capsys.readouterr()
    assert run_cli("compute-pi", "--formula", str(path), *budget.split()) == 0
    assert (len(checks), len(verifies)) == (1, 0)
    assert run_cli("compute-pi", "--formula", str(path), *budget.split()) == 0
    assert (len(checks), len(verifies)) == (2, 0)  # a new request loads anew


def test_record_copy_is_proved_again(tmp_path, monkeypatch):
    # The proof is kept on the instance, so a dataclasses.replace copy,
    # even one with the same fields, is proved again by check_record; one
    # with u2 scaled by 3 (matching digit counts) is refused as the
    # loader refuses it, where a check of its value alone would pass.
    record = load_record(write_record(generate_record(3, 1, "nearest"), tmp_path / "r.json"))
    checks = _count_calls(monkeypatch, machinpi.records.check_record)
    assert pi_digits_from_formula(record, 20)[0] == pi_digits(20)
    assert checks == []
    same = dataclasses.replace(record)
    assert pi_digits_from_formula(same, 20)[0] == pi_digits(20)
    assert pi_from_formula(same, 10, 128) == pi_from_formula(record, 10, 128)
    assert len(checks) == 1
    u2 = record.u2
    scaled = _with_u2_parts(record, 3 * u2.numerator, 3 * u2.denominator)
    for compute in (partial(pi_digits_from_formula, scaled, 20),
                    partial(pi_from_formula, scaled, 10, 128)):
        with pytest.raises(RecordParseError, match="lowest terms"):
            compute()
    assert len(checks) == 3  # a failed proof is not kept


def test_proved_record_is_freed_once_dropped(tmp_path):
    # The proof lives on the record, in no cache of its own, so nothing
    # keeps a proved record alive.  The record is unlike any other test's
    # (created_with), so no equal record stands in for it in a cache.
    made = dataclasses.replace(generate_record(3, 1, "nearest"), created_with=str(tmp_path))
    record = load_record(write_record(made, tmp_path / "r.json"))
    pi_digits_from_formula(record, 20)
    ref = weakref.ref(record)
    del record
    gc.collect()
    assert ref() is None


MALFORMED = {
    "u1.den=0": (("u1", "den"), "0"),
    "u2.den=0": (("u2", "den"), {"value": "0"}),
    "k='3'": (("k",), "3"),
    "k=3.5": (("k",), 3.5),
    "k=0": (("k",), 0),
    "u1.num=0": (("u1", "num"), "0"),
    "num_digits='3'": (("u2_digit_counts", "num_digits"), "3"),
    # The same values in non-canonical spellings.
    "u2=239/-1": (("u2",), {"num": {"value": "239"}, "den": {"value": "-1"}}),
    "u1=-5/-1": (("u1",), {"num": "-5", "den": "-1"}),
    "u1=10/2": (("u1",), {"num": "10", "den": "2"}),
}


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "10", "--formula"),
])
@pytest.mark.parametrize("mutation", sorted(MALFORMED))
def test_malformed_record_is_parse_error(k3_record_path, capsys, command, mutation):
    (*path, field), value = MALFORMED[mutation]
    payload = json.loads(k3_record_path.read_text())
    target = payload
    for key in path:
        target = target[key]
    target[field] = value
    k3_record_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(k3_record_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "Traceback" not in captured.err


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "10", "--formula"),
])
def test_integer_literal_over_digit_cap_is_parse_error(k3_record_path, capsys, command):
    text = k3_record_path.read_text()
    assert '"k": 3,' in text
    k3_record_path.write_text(text.replace('"k": 3,', '"k": 1' + "0" * 5000 + ","))
    capsys.readouterr()
    assert run_cli(*command, str(k3_record_path)) == cli.EXIT_PARSE
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "10", "--formula"),
])
@pytest.mark.parametrize("edit", [
    {"k": 10 ** 6},
    {"k": 10 ** 400},
    {"k": 40, "u1": {"num": "1", "den": "1"},
     "u2": {"num": {"value": "1"}, "den": {"value": "1"}},
     "u2_digit_counts": {"num_digits": 1, "den_digits": 1}},
], ids=["k=10**6", "k=10**400", "k=40,u1=u2=1"])
def test_depth_too_deep_for_second_term_fails_fast(k3_record_path, capsys, command, edit):
    # The exact product would take about 2**(k-1) bits; the size bound on
    # the second term refuses it before any power is formed.
    payload = json.loads(k3_record_path.read_text())
    payload.update(edit)
    k3_record_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(k3_record_path)) == cli.EXIT_VERIFICATION
    captured = capsys.readouterr()
    assert captured.out == "" and "cannot verify" in captured.err


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "20", "--formula"),
])
@pytest.mark.parametrize("relative", [False, True], ids=["absolute", "dotted"])
def test_sidecar_outside_record_directory_is_parse_error(
        k3_record_path, capsys, command, relative):
    # A true digit file with a matching hash, but not a bare file name.
    digits = k3_record_path.parent / "elsewhere" / "num.txt"
    digits.parent.mkdir()
    digits.write_text("-239\n")
    payload = json.loads(k3_record_path.read_text())
    payload["u2"]["num"] = {
        "file": "elsewhere/../elsewhere/num.txt" if relative else str(digits),
        "sha256": hashlib.sha256(b"-239\n").hexdigest(),
    }
    k3_record_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(k3_record_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "20", "--formula"),
])
def test_small_component_in_sidecar_is_parse_error(k3_record_path, capsys, command):
    # The true digits of -239, a matching hash and a bare file name, but
    # a value below the threshold belongs inline.
    (k3_record_path.parent / "k3.u2num.txt").write_text("-239\n")
    payload = json.loads(k3_record_path.read_text())
    payload["u2"]["num"] = {"file": "k3.u2num.txt",
                            "sha256": hashlib.sha256(b"-239\n").hexdigest()}
    k3_record_path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(k3_record_path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "sidecar" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "20", "--formula"),
])
def test_large_component_inline_is_parse_error(tmp_path, capsys, command):
    # Depth 13's u2 parts (about 15,000 digits) moved from their sidecars
    # into the record, digits unchanged.
    path = write_record(generate_record(13, 1, "nearest"), tmp_path / "k13.json")
    assert run_cli("verify", str(path)) == 0
    payload = json.loads(path.read_text())
    for part in ("num", "den"):
        sidecar = tmp_path / payload["u2"][part]["file"]
        payload["u2"][part] = {"value": sidecar.read_text()[:-1]}
        sidecar.unlink()
    path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "inline" in captured.err and captured.err.count("\n") == 1


@pytest.mark.parametrize("command", [
    ("verify",), ("compute-pi", "--digits", "20", "--formula"),
])
@pytest.mark.parametrize("damage, message", [
    ("newline", "lacks its final newline"), ("missing", "unreadable"),
])
def test_damaged_sidecar_is_parse_error(tmp_path, capsys, command, damage, message):
    # A k = 14 sidecar loses its final newline, its hash updated to match
    # so that only the newline check can refuse it, or goes missing.
    path = write_record(generate_record(14, 1, "nearest"), tmp_path / "k14.json")
    payload = json.loads(path.read_text())
    sidecar = tmp_path / payload["u2"]["num"]["file"]
    if damage == "missing":
        sidecar.unlink()
    else:
        body = sidecar.read_text()[:-1]
        sidecar.write_text(body)
        payload["u2"]["num"]["sha256"] = hashlib.sha256(body.encode()).hexdigest()
        path.write_text(json.dumps(payload))
    capsys.readouterr()
    assert run_cli(*command, str(path)) == cli.EXIT_PARSE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err and captured.err.count("\n") == 1


class TestIntTextCap:
    """machinpi never changes CPython's int <-> str digit cap: it converts
    big values in chunks short enough that the cap is never checked, so
    the process keeps its cap and big values still work."""

    @pytest.fixture()
    def default_cap(self):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        yield sys.int_info.default_max_str_digits
        sys.set_int_max_str_digits(previous)

    def test_import_leaves_cap_unchanged(self):
        src = str(Path(machinpi.__file__).resolve().parents[1])
        code = ("import sys; before = sys.get_int_max_str_digits(); "
                "import machinpi, machinpi.cli; "
                "assert sys.get_int_max_str_digits() == before > 0")
        env = {**os.environ, "PYTHONPATH": src}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)

    def test_long_digit_string_under_default_cap(self, k3_record_path, capsys,
                                                  default_cap, pi_text_300):
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), "--digits", "5000"
        ) == 0
        out = capsys.readouterr().out.strip()
        assert len(out) == 5002 and out.startswith(pi_text_300)
        assert sys.get_int_max_str_digits() == default_cap

    def test_depth_fifteen_round_trip_under_default_cap(self, tmp_path, default_cap):
        record = generate_record(15, 1, "nearest")
        assert record.u2_digit_counts[0] > 60_000
        path = write_record(record, tmp_path / "k15.json")
        loaded = load_record(path)
        assert loaded == record
        check_record(loaded)
        assert sys.get_int_max_str_digits() == default_cap

    @pytest.fixture()
    def settings_frozen(self, monkeypatch):
        """The lowest digit cap CPython allows, with the setters of the cap
        and of the umask made to raise."""
        def refuse(*args):
            raise AssertionError("a process-wide setting was changed")

        with int_text_cap(640), monkeypatch.context() as patch:
            patch.setattr(sys, "set_int_max_str_digits", refuse)
            patch.setattr(os, "umask", refuse)
            yield

    def test_commands_change_no_process_setting(self, tmp_path, capsys,
                                                settings_frozen):
        record = str(tmp_path / "k15.json")
        assert run_cli("generate", "15", "--out", record) == 0
        assert run_cli("verify", record) == 0
        assert run_cli("compute-pi", "--formula", record, "--digits", "5000") == 0
        assert run_cli("solve-second", "--alpha1", "8192", "--beta1", "10430") == 0
        # 111 terms at k = 10 need a reference pi of about 700 digits.
        assert run_cli("bench", "--k", "3,10", "--max-terms", "110",
                       "--out", str(tmp_path)) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(len(line) == 5002 and line.startswith("3.14159") for line in lines)
        assert any(line.startswith("beta2 = ") and len(line) > 2 * 640 for line in lines)


class TestComputePiCommand:
    def test_digits_from_record(self, k3_record_path, capsys, pi_text_300):
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), "--digits", "100"
        ) == 0
        out = capsys.readouterr().out.strip()
        assert out == pi_text_300[:102]

    @pytest.mark.parametrize("budget", [("--digits", "20"), ("--terms", "10")])
    def test_edited_record_is_rechecked(self, k3_record_path, capsys, budget):
        # The record still claims "verified": true; compute-pi must not
        # trust it and print a wrong pi.
        payload = json.loads(k3_record_path.read_text())
        payload["u2"]["num"]["value"] = "-238"
        assert payload["verified"] is True
        k3_record_path.write_text(json.dumps(payload))
        capsys.readouterr()
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), *budget
        ) == cli.EXIT_VERIFICATION
        assert capsys.readouterr().out == ""

    def test_terms_budget_reports_rate(self, k3_record_path, capsys, pi_text_300):
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), "--terms", "30"
        ) == 0
        captured = capsys.readouterr()
        digits = captured.out.strip()
        assert pi_text_300.startswith(digits)
        assert len(digits) > 50
        # u1 = 5 runs the 30 terms; u2 = -239 gains 5.36 digits per term
        assert "terms used: 30+13; measured digits/term" in captured.err

    @pytest.mark.parametrize("k, den, rounding", [
        (2, 10, "nearest"), *((k, 1, "nearest") for k in range(3, 18)), (10, 1, "floor"),
    ])
    def test_digits_from_every_depth_match_machin(self, tmp_path, capsys, k, den,
                                                  rounding):
        # Every second argument past depth 3 is a non-integer cotangent,
        # summed through its chain of integer cotangents.
        path = write_record(generate_record(k, den, rounding), tmp_path / "f.json")
        capsys.readouterr()
        assert run_cli("compute-pi", "--formula", str(path), "--digits", "2000") == 0
        assert capsys.readouterr().out == pi_digits(2000) + "\n"

    @pytest.mark.parametrize("k, u1, u2_text", [
        (2, Fraction(1), ("-1", "1")),  # certifies [2.0, 4.4]
        (1, Fraction(2), ("3", "1")),  # certifies [3.117, 3.243]
    ])
    def test_terms_budget_certifying_no_digit_exits_5(self, tmp_path, capsys, k, u1,
                                                      u2_text):
        # One term printed "3.1" with exit 0 from both of these formulas.
        record = build_record(
            k=k, denominator_policy=1, rounding="nearest", u1=u1, epsilon_decimal="0",
            u2_text=u2_text, verified=True, predicted_rate=0.0,
        )
        path = write_record(record, tmp_path / "f.json")
        assert run_cli("verify", str(path)) == cli.EXIT_OK
        capsys.readouterr()
        assert run_cli("compute-pi", "--formula", str(path), "--terms", "1") \
            == cli.EXIT_PRECISION
        captured = capsys.readouterr()
        assert captured.out == "" and "certify no digit" in captured.err

    def test_tower_source(self, capsys, pi_text_300):
        assert run_cli("compute-pi", "--k", "6", "--digits", "40") == 0
        assert capsys.readouterr().out.strip() == pi_text_300[:42]

    def test_tower_source_shallow_many_digits(self, capsys):
        # At k = 2 the term count must come from the exact cotangent; the
        # estimate 2**(k+1)/pi overstated the rate and ran out of terms.
        assert run_cli("compute-pi", "--k", "2", "--digits", "1000") == 0
        assert capsys.readouterr().out.strip() == pi_digits(1000)

    @pytest.mark.parametrize("k", [3, 5, 10, 17, 40, 65, 400])
    def test_tower_digits_from_every_depth_match_machin(self, capsys, k):
        assert run_cli("compute-pi", "--k", str(k), "--digits", "2000") == 0
        assert capsys.readouterr().out == pi_digits(2000) + "\n"

    # Lengths, "3." included, that the fixed-point stream on c_k certified
    # from these budgets.  The chain's first cotangent ceil(c_k) converges
    # faster than c_k, so shallow towers may certify a few more.
    @pytest.mark.parametrize("k, terms, floor", [
        (2, 2, 3), (2, 6, 10), (2, 100, 141),
        (3, 2, 5), (3, 3, 7), (3, 30, 63), (3, 100, 203),
        (4, 6, 17), (4, 30, 79), (4, 100, 264),
        (5, 30, 99), (5, 100, 324),
    ])
    def test_tower_terms_budget_keeps_its_length(self, capsys, k, terms, floor):
        assert run_cli("compute-pi", "--k", str(k), "--terms", str(terms)) == 0
        digits = capsys.readouterr().out.strip()
        assert len(digits) >= floor
        assert pi_digits(400).startswith(digits)

    def test_tower_terms_budget_deep(self, capsys, pi_text_300):
        assert run_cli("compute-pi", "--k", "40", "--terms", "6") == 0
        digits = capsys.readouterr().out.strip()
        assert pi_text_300.startswith(digits)
        assert len(digits) >= 142  # "3." plus at least 140 digits

    @pytest.mark.parametrize("k, terms, expected", [
        ("2", "30", "3.141592653589793238462643383279502884197169"),
        ("40", "6", "3.14159265358979323846264338327950288419716939937510582097"
                    "494459230781640628620899862803482534211706798214808651328230"
                    "6647093844609550582231725359"),
    ])
    def test_tower_terms_budget_output_pinned(self, capsys, k, terms, expected):
        assert run_cli("compute-pi", "--k", k, "--terms", terms) == 0
        assert capsys.readouterr().out == expected + "\n"

    def test_writes_output_file(self, k3_record_path, tmp_path, pi_text_300):
        target = tmp_path / "pi.txt"
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path),
            "--digits", "30", "--out", str(target),
        ) == 0
        assert target.read_text().strip() == pi_text_300[:32]

    def test_usage_violations(self, k3_record_path):
        assert run_cli("compute-pi", "--digits", "10") == cli.EXIT_USAGE
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), "--k", "3",
            "--digits", "10",
        ) == cli.EXIT_USAGE
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path)
        ) == cli.EXIT_USAGE
        assert run_cli(
            "compute-pi", "--formula", str(k3_record_path), "--digits", "0"
        ) == cli.EXIT_USAGE

    @pytest.mark.parametrize("argv", [
        ("--k", "0", "--digits", "5"),
        ("--k", "-3000", "--terms", "5"),
        ("--k", "-3", "--terms", "5"),
    ])
    def test_invalid_depth_is_usage_error(self, capsys, argv):
        assert run_cli("compute-pi", *argv) == cli.EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.err == "error: depth k must be at least 2\n"
        assert captured.out == ""


class TestUnwritableOutput:
    """A path that cannot be written is a usage error (exit 2) with a
    one-line message, never a traceback."""

    def assert_usage_error(self, capsys, *argv):
        assert run_cli(*argv) == cli.EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.endswith(" ms/term")]  # bench timings
        assert len(errors) == 1 and errors[0].startswith("error: [Errno ")
        assert argv[-1] in errors[0]

    def test_compute_pi_into_missing_directory(self, tmp_path, capsys):
        target = tmp_path / "missing" / "x.txt"
        self.assert_usage_error(
            capsys, "compute-pi", "--k", "3", "--digits", "5", "--out", str(target)
        )
        assert not target.parent.exists()

    def test_compute_pi_onto_directory(self, tmp_path, capsys):
        self.assert_usage_error(
            capsys, "compute-pi", "--k", "3", "--digits", "5", "--out", str(tmp_path)
        )

    def test_generate_onto_directory(self, tmp_path, capsys):
        self.assert_usage_error(capsys, "generate", "3", "--out", str(tmp_path))
        assert list(tmp_path.iterdir()) == []

    def test_failed_record_write_removes_its_sidecars(self, tmp_path, capsys):
        # k = 14 writes two 33 kB sidecars before the record itself.
        target = tmp_path / "d.json"
        target.mkdir()
        self.assert_usage_error(capsys, "generate", "14", "--out", str(target))
        assert list(tmp_path.iterdir()) == [target]
        assert list(target.iterdir()) == []

    def test_bench_into_existing_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("")
        self.assert_usage_error(
            capsys, "bench", "--k", "3", "--max-terms", "3", "--out", str(target)
        )
        assert target.read_text() == ""


class TestPowerSizeLimit:
    """A request whose Gaussian power would pass 2**30 bits is a usage
    error with one line, refused before that power is formed."""

    @pytest.mark.parametrize("argv", [
        ("generate", "34"),
        ("solve-second", "--alpha1", str(2 ** 40), "--beta1", "5"),
        ("bench", "--k", "2,40"),
    ])
    def test_refused_at_once(self, tmp_path, monkeypatch, capsys, argv):
        exponents = []
        power = machinpi.exact.gaussian_power

        def spy(re, im, n):
            exponents.append(n)
            return power(re, im, n)

        _patch_everywhere(monkeypatch, power, spy)
        monkeypatch.setenv("MACHINPI_DIR", str(tmp_path))
        start = time.perf_counter()
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.endswith(" ms/term")]  # bench timings
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "limit" in errors[0]
        assert max(exponents, default=0) <= 2  # bench's depth 2 only

    @pytest.mark.parametrize("argv", [
        ("generate", "27"), ("generate", "100000"), ("bench", "--k", "100000"),
        ("bench", "--k", "3,100000"),
    ])
    def test_hopeless_depth_refused_before_the_tower(self, tmp_path, monkeypatch,
                                                     capsys, argv):
        def no_tower(k, digits):
            raise AssertionError(f"tower evaluated at depth {k}")

        monkeypatch.setattr(cli, "eval_radicals", no_tower)
        monkeypatch.setenv("MACHINPI_DIR", str(tmp_path))
        start = time.perf_counter()
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 0.5
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "limit" in err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("k, den, rounding", [
        (k, den, rounding) for k in range(2, 24) for den in (1, 10, 100)
        for rounding in ("nearest", "floor")])
    def test_depth_bound_is_below_every_selectable_power(self, k, den, rounding):
        # The refusal's bound 2**(k-1) * (k-1) must not exceed the power
        # of any u1 the tower can select, or a workable depth is refused.
        try:
            u1 = select_u1(eval_radicals(k, 26), den, rounding).u1
        except EpsilonTooLarge:
            return
        assert machin.power_bits(1 << (k - 1), u1) >= (1 << (k - 1)) * (k - 1)
        machin.check_tower_depth(k)

    def test_depth_bound_first_refuses_27(self):
        machin.check_tower_depth(26)  # 2**25 * 25 bits, under the limit
        with pytest.raises(ValueError, match="limit"):
            machin.check_tower_depth(27)


class TestBenchCommand:
    def test_small_bench(self, tmp_path, capsys):
        assert run_cli(
            "bench", "--k", "2,3", "--max-terms", "8", "--out", str(tmp_path)
        ) == 0
        report = json.loads((tmp_path / "bench_report.json").read_text())
        assert [r["k"] for r in report["reports"]] == [2, 3]
        slopes = {r["k"]: r["measured_digits_per_term"] for r in report["reports"]}
        assert slopes[2] == pytest.approx(1.38, abs=0.45)
        assert slopes[3] == pytest.approx(2.0, abs=0.45)
        table = (tmp_path / "bench_report.txt").read_text()
        assert "measured" in table and "published" in table
        # wall-clock timing goes to stderr, never into the report files
        assert "ms/term" in capsys.readouterr().err
        assert "wall" not in (tmp_path / "bench_report.json").read_text()

    def test_bench_primary_outputs_deterministic(self, tmp_path):
        d1, d2 = tmp_path / "r1", tmp_path / "r2"
        for d in (d1, d2):
            assert run_cli(
                "bench", "--k", "3", "--max-terms", "6", "--out", str(d)
            ) == 0
        assert (d1 / "bench_report.json").read_bytes() == (
            d2 / "bench_report.json"
        ).read_bytes()

    def test_single_sample_flagged_undefined(self, tmp_path, capsys):
        assert run_cli(
            "bench", "--k", "3", "--max-terms", "1", "--out", str(tmp_path)
        ) == 0
        report = json.loads((tmp_path / "bench_report.json").read_text())
        slope = report["reports"][0]["measured_digits_per_term"]
        assert slope is None or slope != slope  # undefined: one sample


def test_every_error_class_has_one_exit_code():
    # One table entry per code 3..8 plus OSError, and each package error
    # is caught by exactly one of them.
    codes = [code for _, code in cli._EXIT_BY_ERROR]
    assert sorted(codes) == [cli.EXIT_USAGE, *range(cli.EXIT_PARSE, cli.EXIT_EPSILON + 1)]
    for cls in vars(errors).values():
        if isinstance(cls, type) and cls is not errors.MachinPiError:
            assert issubclass(cls, errors.MachinPiError)
            assert sum(issubclass(cls, base) for base, _ in cli._EXIT_BY_ERROR) == 1, cls


def test_unlisted_exception_propagates(monkeypatch):
    def broken(path):
        raise RuntimeError("not an error the CLI maps")

    monkeypatch.setattr(cli, "load_record", broken)
    with pytest.raises(RuntimeError, match="not an error the CLI maps"):
        cli.main(["verify", "formula_k3.json"])


class TestSolveSecondCommand:
    def test_non_integer_first_cotangent_printed_in_parentheses(self, capsys):
        # 3 arctan(2) + arctan(9/13) is pi/4 + pi; "1/1/2" would read as 1/2.
        assert run_cli("solve-second", "--alpha1", "3", "--beta1", "0.5") == \
            cli.EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: 3*arctan(1/(1/2)) plus its closing term is "
                                "pi/4 +1*pi; none closes pi/4\n")

    def test_published_counterexample(self, capsys):
        assert run_cli("solve-second", "--alpha1", "7", "--beta1", "1000000000") == 0
        out = capsys.readouterr().out
        assert (
            "1000000006999999978999999965000000035000000020999999992999999999" in out
        )
        assert "1.00000001400000009800" in out

    def test_hand_checked_pair(self, capsys):
        assert run_cli("solve-second", "--alpha1", "2", "--beta1", "2") == 0
        assert "beta2 = -7/1" in capsys.readouterr().out

    @pytest.mark.parametrize("alpha1, beta1, where", [
        ("1", "1", "is already pi/4; "),
        ("3", "-1", "is already pi/4 -1*pi; "),
        ("8", "2", "is pi/4 +1*pi; "),
    ], ids=["pi/4", "pi/4-pi", "closing-term-pi/4+pi"])
    def test_degenerate_exit_code(self, capsys, alpha1, beta1, where):
        # 8 arctan(1/2) + arctan(191/863) is pi/4 + pi: the closing term
        # modulo pi closes no formula for pi.
        assert run_cli(
            "solve-second", "--alpha1", alpha1, "--beta1", beta1
        ) == cli.EXIT_DEGENERATE
        captured = capsys.readouterr()
        assert captured.out == "" and where in captured.err

    @given(st.integers(1, 40), st.integers(-60, 60).filter(bool), st.integers(1, 60))
    @example(8, 2, 1).via("pi/4 + pi")
    @example(3, -1, 1).via("already pi/4 - pi")
    @example(2, 2, 1).via("closes")
    def test_printed_second_term_closes_pi_over_4(self, alpha1, p, q):
        # Exit 0 iff some beta2 closes pi/4 exactly, by an independent
        # product and branch estimate; stdout then names that beta2.
        beta1 = Fraction(p, q)
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run_cli("solve-second", "--alpha1", str(alpha1), f"--beta1={beta1}")
        # The rotation w = (beta2 + i)/(beta2 - i) = i / z = im + i*re of
        # beta2 = 2 re / ((im - 1)**2 + re**2); re = 0 leaves none.
        re, im = rotation_power_reference(beta1, alpha1)
        beta2 = 2 * re / ((im - 1) ** 2 + re ** 2) if re else None
        if beta2 is None or branch_turns([(alpha1, beta1), (1, beta2)]):
            assert code == cli.EXIT_DEGENERATE and out.getvalue() == ""
        else:
            assert code == 0
            assert out.getvalue().startswith(
                f"beta2 = {beta2.numerator}/{beta2.denominator}\n")
