"""The four workloads: set-up requests and the fixed request list of a pass.

A pass runs every request of its workload once, in an order drawn from
the run's seed.  Requests are grouped into units whose inner order is
fixed (a record is generated before it is verified); the seed shuffles
the units.  For `formula` the seed also picks which digit of the
negative-control record's u2 numerator is changed.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

from .oracles import big_int_str

WORKLOADS = ("formula", "digits", "tower", "rates")

FORMULA_DEPTHS = (13, 14, 15)
NEGATIVE_RECORD = "negative_k13.json"
# (frozen fact key, record file, digits) for compute-pi --formula.
DIGITS_REQUESTS = (("k3", "formula_k3.json", 3000),
                   ("k10floor", "formula_k10.json", 5000),
                   ("k14", "formula_k14.json", 1000))
TOWER_REQUESTS = ((40, 10000), (400, 10000))
RATES_DEPTHS = "2,3,5,10"
RATES_MAX_TERMS = 80


@dataclass(frozen=True)
class Request:
    """One CLI command and how its output is judged.

    check is one of ("generate", fact key, record path),
    ("verify", expected exit code), ("pi", digits), ("bench", report
    path) or ("exit", expected exit code).
    """

    name: str
    argv: tuple[str, ...]
    check: tuple

    @property
    def command(self) -> str:
        return self.argv[0]


def _generate(k: int, work_dir: Path, fact: str, *extra: str) -> Request:
    out = work_dir / f"formula_k{k}.json"
    return Request(f"generate k={k}", ("generate", str(k), *extra),
                   ("generate", fact, out))


def setup_requests(workload: str, work_dir: Path) -> list[Request]:
    """Records a workload needs before its first pass."""
    if workload == "formula":
        out = work_dir / NEGATIVE_RECORD
        # Its record is altered right after, so only the exit code is judged.
        return [Request("generate negative k=13",
                        ("generate", "13", "--out", str(out)), ("exit", 0))]
    if workload == "digits":
        return [
            _generate(3, work_dir, "k3"),
            _generate(10, work_dir, "k10floor", "--round", "floor"),
            _generate(14, work_dir, "k14"),
        ]
    return []


def pass_units(workload: str, work_dir: Path) -> list[list[Request]]:
    """The requests of one pass, grouped into order-preserving units."""
    if workload == "formula":
        units = []
        for k in FORMULA_DEPTHS:
            gen = _generate(k, work_dir, f"k{k}")
            units.append([gen, Request(f"verify k={k}",
                                       ("verify", str(gen.check[2])),
                                       ("verify", 0))])
        negative = work_dir / NEGATIVE_RECORD
        units.append([Request("verify negative k=13",
                              ("verify", str(negative)), ("verify", 4))])
        return units
    if workload == "digits":
        return [[Request(f"compute-pi {fact} {digits}",
                         ("compute-pi", "--formula", str(work_dir / name),
                          "--digits", str(digits)),
                         ("pi", digits))]
                for fact, name, digits in DIGITS_REQUESTS]
    if workload == "tower":
        return [[Request(f"compute-pi k={k} {digits}",
                         ("compute-pi", "--k", str(k), "--digits", str(digits)),
                         ("pi", digits))]
                for k, digits in TOWER_REQUESTS]
    if workload == "rates":
        return [[Request("bench",
                         ("bench", "--k", RATES_DEPTHS,
                          "--max-terms", str(RATES_MAX_TERMS)),
                         ("bench", work_dir / "bench_report.json"))]]
    raise ValueError(f"unknown workload {workload!r}")


def pi_digit_targets(workload: str) -> list[int]:
    if workload == "digits":
        return [digits for _, _, digits in DIGITS_REQUESTS]
    if workload == "tower":
        return [digits for _, digits in TOWER_REQUESTS]
    return []


class PassPlan:
    """Seeded source of request orders, one per pass."""

    def __init__(self, workload: str, work_dir: Path, seed: int):
        self._units = pass_units(workload, work_dir)
        self._rng = random.Random(f"{seed}/order")

    def next_order(self) -> list[Request]:
        units = list(self._units)
        self._rng.shuffle(units)
        return [request for unit in units for request in unit]


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _read_component(entry: dict, directory: Path) -> str:
    if "value" in entry:
        return entry["value"]
    return (directory / entry["file"]).read_text().strip()


def perturb_negative_record(record_path: Path, seed: int) -> int:
    """Change one digit of the record's u2 numerator so the formula no
    longer verifies but the record still parses and its digit counts
    still hold.  The seed picks the digit; the replacement is the first
    that keeps the fraction in lowest terms.  Returns the digit index."""
    rng = random.Random(f"{seed}/perturb")
    directory = record_path.parent
    payload = json.loads(record_path.read_text())
    num_entry = payload["u2"]["num"]
    num_text = _read_component(num_entry, directory)
    den_text = _read_component(payload["u2"]["den"], directory)
    sign, digits = ("-", num_text[1:]) if num_text.startswith("-") else ("", num_text)
    position = rng.randrange(1, len(digits))
    with big_int_str():
        den = int(den_text)
        for delta in range(1, 10):
            new = str((int(digits[position]) + delta) % 10)
            candidate = digits[:position] + new + digits[position + 1:]
            if math.gcd(int(candidate), den) == 1:
                break
        else:
            raise ValueError("no coprime perturbation at the chosen digit")
    text = sign + candidate
    if "value" in num_entry:
        num_entry["value"] = text
    else:
        body = text + "\n"
        (directory / num_entry["file"]).write_text(body)
        num_entry["sha256"] = _sha256_text(body)
    record_path.write_text(json.dumps(payload, indent=2) + "\n")
    return position
