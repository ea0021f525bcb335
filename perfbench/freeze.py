"""Regenerate frozen.json, the expected outputs the benchmark checks.

    python3 -m perfbench.freeze

Runs the records and the `bench` request of the workloads once through
machinpi.cli.main and freezes what they produce: u1, the u2 digit
counts, the 20-digit head and the sidecar sha256 of each record, and
the (terms, digits) samples of bench_report.json.  Before freezing, each
record's u2 is cross-checked against solve_second_term_direct (the
Gaussian-rational path, independent of the closed form the CLI uses),
and its digit counts and head against integer arithmetic done here.
Run it only when an intended change alters these outputs.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from fractions import Fraction
from pathlib import Path

from . import oracles, workloads
from .worker import ROOT, call, import_cli

RECORDS = {
    "k3": ("3",),
    "k10floor": ("10", "--round", "floor"),
    "k13": ("13",),
    "k14": ("14",),
    "k15": ("15",),
}


def head_text(value: Fraction, digits: int = 20) -> str:
    """Truncated fixed-point text below 10**6, d.<digits>e<exp> above."""
    sign = "-" if value < 0 else ""
    value = abs(value)
    exp = 0
    if value >= 10 ** 6:
        exp = len(str(value.numerator // value.denominator)) - 1
        value /= 10 ** exp
    scaled = value.numerator * 10 ** digits // value.denominator
    whole, frac = divmod(scaled, 10 ** digits)
    text = f"{sign}{whole}.{frac:0{digits}d}"
    return f"{text}e{exp}" if exp else text


def _component(entry: dict, directory: Path) -> tuple[int, dict]:
    if "value" in entry:
        return int(entry["value"]), {"value": entry["value"]}
    body = (directory / entry["file"]).read_bytes()
    digest = hashlib.sha256(body).hexdigest()
    if digest != entry["sha256"]:
        raise AssertionError(f"{entry['file']}: hash in record does not match")
    return int(body), {"sha256": digest}


def freeze_record(cli, machin, key: str, work_dir: Path) -> dict:
    out = work_dir / f"{key}.json"
    rc, _, err, _ = call(cli.main, ("generate", *RECORDS[key], "--out", str(out)))
    if rc != 0:
        raise AssertionError(f"generate {key} exited {rc}: {err}")
    payload = json.loads(out.read_text())
    num, num_fact = _component(payload["u2"]["num"], work_dir)
    den, den_fact = _component(payload["u2"]["den"], work_dir)
    k = payload["k"]
    u1 = Fraction(int(payload["u1"]["num"]), int(payload["u1"]["den"]))
    u2 = Fraction(num, den)
    if machin.solve_second_term_direct(1 << (k - 1), u1) != u2:
        raise AssertionError(f"{key}: u2 disagrees with the direct solve")
    counts = [len(str(abs(num))), len(str(den))]
    if counts != [payload["u2_digit_counts"]["num_digits"],
                  payload["u2_digit_counts"]["den_digits"]]:
        raise AssertionError(f"{key}: stored digit counts are wrong")
    if head_text(u2) != payload["u2_decimal_head"]:
        raise AssertionError(f"{key}: stored head is wrong")
    return {
        "u1": [payload["u1"]["num"], payload["u1"]["den"]],
        "digit_counts": counts,
        "head": payload["u2_decimal_head"],
        "verified": True,
        "u2num": num_fact,
        "u2den": den_fact,
    }


def freeze_rates(cli, work_dir: Path) -> dict:
    report = work_dir / "bench_report.json"
    rc, _, err, _ = call(cli.main, ("bench", "--k", workloads.RATES_DEPTHS,
                                    "--max-terms", str(workloads.RATES_MAX_TERMS),
                                    "--out", str(work_dir)))
    if rc != 0:
        raise AssertionError(f"bench exited {rc}: {err}")
    payload = json.loads(report.read_text())
    return {
        str(rep["k"]): {"u1": [rep["u1"]["num"], rep["u1"]["den"]],
                        "samples": rep["samples"]}
        for rep in payload["reports"]
    }


def main() -> int:
    cli = import_cli()
    from machinpi import machin

    work_dir = ROOT / ".perfbench_runs" / "freeze"
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    try:
        with oracles.big_int_str():
            frozen = {
                "records": {key: freeze_record(cli, machin, key, work_dir)
                            for key in RECORDS},
                "rates": freeze_rates(cli, work_dir),
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    # One line per record and per depth keeps the file readable in diffs.
    sections = [
        f" {json.dumps(section)}: {{\n"
        + ",\n".join(f"  {json.dumps(key)}: {json.dumps(value)}"
                     for key, value in entries.items())
        + "\n }"
        for section, entries in frozen.items()
    ]
    oracles.FROZEN_PATH.write_text("{\n" + ",\n".join(sections) + "\n}\n")
    print(f"wrote {oracles.FROZEN_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
