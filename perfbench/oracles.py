"""Output oracles that share no code with machinpi.

The pi reference is computed here with plain integers (Gauss's formula
pi/4 = 12 arctan(1/18) + 8 arctan(1/57) - 5 arctan(1/239), which none of
machinpi's constructions use).  Record facts and the `bench` samples are
frozen in frozen.json by freeze.py.  Every check returns a list of
problems; an empty list means the output is correct.  Checks never raise
for bad program output, so a mismatch is counted, not fatal.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import sys
from pathlib import Path

FROZEN_PATH = Path(__file__).with_name("frozen.json")

VERIFY_OK_SUFFIX = ": verified exactly; digit counts match"


@contextlib.contextmanager
def big_int_str():
    """Lift CPython's int<->str digit cap for the duration of a block and
    restore the previous value afterwards."""
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(previous)


def _arccot(x: int, unity: int) -> tuple[int, int]:
    """(value, error) with |arccot(x) * unity - value| <= error, from the
    alternating series with one truncating division per term."""
    total = 0
    power = unity // x
    x2 = x * x
    n = 1
    sign = 1
    terms = 0
    while power:
        total += sign * (power // n)
        power //= x2
        n += 2
        sign = -sign
        terms += 1
    # One ulp per division for the power and the term, one for the tail.
    return total, 2 * terms + 2


def pi_truncated(digits: int) -> str:
    """pi truncated toward zero to `digits` fractional digits, as
    machinpi prints it: "3.1415..."."""
    if digits < 1:
        raise ValueError("digits must be at least 1")
    guard = 20
    unity = 10 ** (digits + guard)
    value = 0
    error = 0
    for coeff, x in ((12, 18), (8, 57), (-5, 239)):
        v, e = _arccot(x, unity)
        value += coeff * v
        error += abs(coeff) * e
    value *= 4
    error *= 4
    lo = (value - error) // 10 ** guard
    hi = (value + error) // 10 ** guard
    if lo != hi:
        raise ArithmeticError(f"pi oracle undecided at {digits} digits")
    with big_int_str():
        text = str(lo)
    return f"{text[0]}.{text[1:]}"


def load_frozen(path: Path = FROZEN_PATH) -> dict:
    return json.loads(path.read_text())


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_record(record_path: Path, facts: dict) -> list[str]:
    """Compare a written record (and its sidecars) with frozen facts."""
    try:
        payload = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        return [f"record {record_path.name} unreadable: {exc}"]
    problems = []
    try:
        u1 = [payload["u1"]["num"], payload["u1"]["den"]]
        counts = [
            payload["u2_digit_counts"]["num_digits"],
            payload["u2_digit_counts"]["den_digits"],
        ]
        observed = {
            "u1": u1,
            "digit_counts": counts,
            "head": payload["u2_decimal_head"],
            "verified": payload["verified"],
        }
        for key, value in observed.items():
            if value != facts[key]:
                problems.append(f"{key}: expected {facts[key]!r}, got {value!r}")
        for part in ("num", "den"):
            entry = payload["u2"][part]
            expected = facts[f"u2{part}"]
            if "sha256" in expected:
                if entry.get("sha256") != expected["sha256"]:
                    problems.append(f"u2 {part} sidecar hash in record differs")
                    continue
                sidecar = record_path.parent / entry["file"]
                if _sha256_file(sidecar) != expected["sha256"]:
                    problems.append(f"u2 {part} sidecar content differs")
            elif entry.get("value") != expected["value"]:
                problems.append(f"u2 {part} value differs")
    except (KeyError, TypeError, OSError) as exc:
        problems.append(f"record {record_path.name} malformed: {exc!r}")
    return problems


def check_generate(rc: int, stdout: str, record_path: Path, facts: dict) -> list[str]:
    if rc != 0:
        return [f"generate exited {rc}, expected 0"]
    problems = check_record(record_path, facts)
    num, den = facts["digit_counts"]
    num_u1, den_u1 = facts["u1"]
    u1_text = num_u1 if den_u1 == "1" else f"{num_u1}/{den_u1}"
    for line in (
        f"u1 = {u1_text}",
        f"u2 ~ {facts['head']}  ({num}/{den} digits)",
        "verified = true",
    ):
        if line not in stdout.splitlines():
            problems.append(f"generate output lacks {line!r}")
    return problems


def check_verify(rc: int, stdout: str, expected_rc: int) -> list[str]:
    if rc != expected_rc:
        return [f"verify exited {rc}, expected {expected_rc}"]
    if expected_rc == 0 and not stdout.rstrip("\n").endswith(VERIFY_OK_SUFFIX):
        return ["verify printed no success line"]
    return []


def check_compute_pi(rc: int, stdout: str, expected: str) -> list[str]:
    if rc != 0:
        return [f"compute-pi exited {rc}, expected 0"]
    lines = stdout.splitlines()
    if not lines:
        return ["compute-pi printed nothing"]
    if lines[0] != expected:
        got = lines[0]
        at = next(
            (i for i, (a, b) in enumerate(zip(got, expected)) if a != b),
            min(len(got), len(expected)),
        )
        return [
            f"pi digits differ from the oracle at character {at} "
            f"(got {len(got)} characters, expected {len(expected)})"
        ]
    return []


def check_bench(rc: int, report_path: Path, frozen_reports: dict) -> list[str]:
    """Compare bench_report.json's u1 and (terms, digits) samples per depth
    with the frozen ones."""
    if rc != 0:
        return [f"bench exited {rc}, expected 0"]
    try:
        payload = json.loads(report_path.read_text())
        observed = {
            str(rep["k"]): {
                "u1": [rep["u1"]["num"], rep["u1"]["den"]],
                "samples": rep["samples"],
            }
            for rep in payload["reports"]
        }
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"bench report unreadable: {exc!r}"]
    problems = []
    if sorted(observed) != sorted(frozen_reports):
        problems.append(
            f"bench reported depths {sorted(observed)}, "
            f"expected {sorted(frozen_reports)}"
        )
    for k, expected in frozen_reports.items():
        got = observed.get(k)
        if got is not None and got != expected:
            problems.append(f"bench samples or u1 differ at k={k}")
    return problems
