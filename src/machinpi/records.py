"""Formula records: versioned JSON artifacts with big-value sidecars.

Unbounded integers are stored as decimal strings so any JSON parser
round-trips them exactly.  Second-term components above the inline
threshold go to sidecar text files (decimal digits, optional leading
minus, trailing newline) referenced by relative path plus content hash;
loading verifies the hash and fails loudly on mismatch.  Writes are
atomic (temp file then rename) and byte-deterministic for identical
inputs.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import DigitCountMismatch, RecordParseError, UnverifiedFormula
from .exact import decimal_digit_count, format_decimal_head
from .machin import MachinFormula, verify_formula

SCHEMA_VERSION = 1

# Components at or above this many decimal digits move to sidecar files.
SIDECAR_THRESHOLD_DIGITS = 10_000


@dataclass(frozen=True)
class FormulaRecord:
    schema_version: int
    k: int
    denominator_policy: int
    rounding: str
    u1: Fraction
    epsilon_decimal: str
    u2: Fraction
    u2_digit_counts: tuple[int, int]
    u2_decimal_head: str
    verified: bool
    predicted_rate: float
    created_with: str

    def formula(self) -> MachinFormula:
        return MachinFormula.two_term(self.k, self.u1, self.u2)


def build_record(
    k: int,
    denominator_policy: int,
    rounding: str,
    u1: Fraction,
    epsilon_decimal: str,
    u2: Fraction,
    verified: bool,
    predicted_rate: float,
) -> FormulaRecord:
    return FormulaRecord(
        schema_version=SCHEMA_VERSION,
        k=k,
        denominator_policy=denominator_policy,
        rounding=rounding,
        u1=u1,
        epsilon_decimal=epsilon_decimal,
        u2=u2,
        u2_digit_counts=(
            decimal_digit_count(u2.numerator),
            decimal_digit_count(u2.denominator),
        ),
        u2_decimal_head=format_decimal_head(u2),
        verified=verified,
        predicted_rate=predicted_rate,
        created_with=f"machinpi {__version__}",
    )


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _component_json(value: int, stem: str, label: str, directory: Path) -> dict:
    text = str(value)
    if len(text.lstrip("-")) < SIDECAR_THRESHOLD_DIGITS:
        return {"value": text}
    filename = f"{stem}.{label}.txt"
    body = text + "\n"
    _atomic_write_text(directory / filename, body)
    return {"file": filename, "sha256": _sha256_text(body)}


def write_record(record: FormulaRecord, path: str | os.PathLike) -> Path:
    """Serialize to JSON at `path`; huge second-term components become
    sidecar files next to it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    stem = path.name.removesuffix(".json")
    payload = {
        "schema_version": record.schema_version,
        "k": record.k,
        "denominator_policy": record.denominator_policy,
        "rounding": record.rounding,
        "u1": {"num": str(record.u1.numerator), "den": str(record.u1.denominator)},
        "epsilon_decimal": record.epsilon_decimal,
        "u2": {
            "num": _component_json(record.u2.numerator, stem, "u2num", path.parent),
            "den": _component_json(record.u2.denominator, stem, "u2den", path.parent),
        },
        "u2_digit_counts": {
            "num_digits": record.u2_digit_counts[0],
            "den_digits": record.u2_digit_counts[1],
        },
        "u2_decimal_head": record.u2_decimal_head,
        "verified": record.verified,
        "predicted_rate": record.predicted_rate,
        "created_with": record.created_with,
    }
    _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    return path


def _component_from_json(entry: dict, directory: Path) -> int:
    if "value" in entry:
        return int(entry["value"])
    sidecar = directory / entry["file"]
    try:
        body = sidecar.read_text()
    except OSError as exc:
        raise RecordParseError(f"sidecar {sidecar} unreadable: {exc}") from exc
    if _sha256_text(body) != entry["sha256"]:
        raise RecordParseError(f"sidecar {sidecar} content hash mismatch")
    return int(body.strip())


def load_record(path: str | os.PathLike) -> FormulaRecord:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise RecordParseError(f"cannot read record {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise RecordParseError(f"record {path} is not valid JSON: {exc}") from exc
    try:
        if payload["schema_version"] != SCHEMA_VERSION:
            raise RecordParseError(
                f"unsupported schema version {payload['schema_version']}"
            )
        k = payload["k"]
        if isinstance(k, bool) or not isinstance(k, int) or k < 1:
            raise RecordParseError(f"record {path}: k must be an integer >= 1")
        u1_num, u1_den = int(payload["u1"]["num"]), int(payload["u1"]["den"])
        u2_num = _component_from_json(payload["u2"]["num"], path.parent)
        u2_den = _component_from_json(payload["u2"]["den"], path.parent)
        if 0 in (u1_num, u1_den, u2_num, u2_den):
            raise RecordParseError(
                f"record {path}: u1 and u2 need nonzero numerators and denominators"
            )
        counts = payload["u2_digit_counts"]
        return FormulaRecord(
            schema_version=payload["schema_version"],
            k=k,
            denominator_policy=payload["denominator_policy"],
            rounding=payload["rounding"],
            u1=Fraction(u1_num, u1_den),
            epsilon_decimal=payload["epsilon_decimal"],
            u2=Fraction(u2_num, u2_den),
            u2_digit_counts=(counts["num_digits"], counts["den_digits"]),
            u2_decimal_head=payload["u2_decimal_head"],
            verified=payload["verified"],
            predicted_rate=payload["predicted_rate"],
            created_with=payload["created_with"],
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordParseError(f"record {path} is malformed: {exc}") from exc


def check_record(record: FormulaRecord) -> None:
    """Recompute what the record claims: digit counts and the exact
    verification.  DigitCountMismatch or UnverifiedFormula on failure."""
    actual = (
        decimal_digit_count(record.u2.numerator),
        decimal_digit_count(record.u2.denominator),
    )
    if actual != record.u2_digit_counts:
        raise DigitCountMismatch(
            f"stored digit counts {record.u2_digit_counts} but value has {actual}"
        )
    outcome = verify_formula(record.formula())
    if not outcome.ok:
        raise UnverifiedFormula(
            f"record's formula fails the exact product check: {outcome.summary()}"
        )
