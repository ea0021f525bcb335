from __future__ import annotations

import hashlib
import json
import os
import stat
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import machinpi
from machinpi import cli
from machinpi.cli import generate_record
from machinpi.errors import DigitCountMismatch, RecordParseError
from machinpi.exact import GaussianInt
from machinpi.records import (
    SIDECAR_THRESHOLD_DIGITS,
    build_record,
    check_record,
    load_record,
    write_record,
)

from oracles import int_text_cap, pi_digits


def run_cli(*argv: str) -> int:
    return cli.main(list(argv))


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
        huge = Fraction(10 ** SIDECAR_THRESHOLD_DIGITS + 7, 3)
        record = build_record(
            k=2,
            denominator_policy=1,
            rounding="nearest",
            u1=Fraction(12, 5),
            epsilon_decimal="-0.01421356237309504880",
            u2=huge,
            verified=False,
            predicted_rate=1.0,
        )
        path = write_record(record, tmp_path / "big.json")
        sidecar = tmp_path / "big.u2num.txt"
        assert sidecar.exists()
        assert sidecar.read_text().endswith("\n")
        loaded = load_record(path)
        assert loaded.u2 == huge

    def test_sidecar_tamper_detected(self, tmp_path):
        huge = Fraction(10 ** SIDECAR_THRESHOLD_DIGITS + 7, 3)
        record = build_record(
            k=2, denominator_policy=1, rounding="nearest",
            u1=Fraction(12, 5), epsilon_decimal="0", u2=huge,
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
        num = record.u2.numerator
        perturbed = build_record(
            k=13, denominator_policy=1, rounding="nearest", u1=record.u1,
            epsilon_decimal=record.epsilon_decimal,
            u2=Fraction(num + 10 ** 5000, record.u2.denominator),
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
            epsilon_decimal="0", u2=Fraction(-31, 17), verified=True,
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


MALFORMED = {
    "u1.den=0": (("u1", "den"), "0"),
    "u2.den=0": (("u2", "den"), {"value": "0"}),
    "k='3'": (("k",), "3"),
    "k=3.5": (("k",), 3.5),
    "k=0": (("k",), 0),
    "u1.num=0": (("u1", "num"), "0"),
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
    {"k": 40, "u1": {"num": "1", "den": "1"},
     "u2": {"num": {"value": "1"}, "den": {"value": "1"}},
     "u2_digit_counts": {"num_digits": 1, "den_digits": 1}},
], ids=["k=10**6", "k=40,u1=u2=1"])
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

    def test_tower_source(self, capsys, pi_text_300):
        assert run_cli("compute-pi", "--k", "6", "--digits", "40") == 0
        assert capsys.readouterr().out.strip() == pi_text_300[:42]

    def test_tower_source_shallow_many_digits(self, capsys):
        # At k = 2 the term count must come from the exact cotangent; the
        # estimate 2**(k+1)/pi overstated the rate and ran out of terms.
        assert run_cli("compute-pi", "--k", "2", "--digits", "1000") == 0
        assert capsys.readouterr().out.strip() == pi_digits(1000)

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
        power = GaussianInt.__pow__

        def spy(self, n):
            exponents.append(n)
            return power(self, n)

        monkeypatch.setattr(GaussianInt, "__pow__", spy)
        monkeypatch.setenv("MACHINPI_DIR", str(tmp_path))
        start = time.perf_counter()
        assert run_cli(*argv) == cli.EXIT_USAGE
        assert time.perf_counter() - start < 1.0
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if not line.endswith(" ms/term")]  # bench timings
        assert len(errors) == 1 and errors[0].startswith("error: ")
        assert "limit" in errors[0]
        assert max(exponents, default=0) <= 2  # bench's depth 2 only


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


class TestSolveSecondCommand:
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

    def test_degenerate_exit_code(self):
        assert run_cli(
            "solve-second", "--alpha1", "1", "--beta1", "1"
        ) == cli.EXIT_DEGENERATE
