"""Formula records: versioned JSON artifacts with big-value sidecars.

Unbounded integers are stored as decimal strings so any JSON parser
round-trips them exactly; exact.int_to_text and exact.text_to_int
convert them without touching the process's int <-> str digit cap.
Second-term components above the inline threshold go to sidecar text
files (decimal digits, optional leading minus, trailing newline)
referenced by file name plus content hash; loading verifies the
hash and fails loudly on mismatch.  Loading accepts integer text only
in the form str(int) writes, u1 and u2 only in lowest terms over a
positive denominator, and sidecars only by bare file name in the
record's directory, so an edited record cannot keep its meaning under a
different spelling or read digits from elsewhere.  Writes are atomic
(temp file then rename), byte-deterministic, and create files with mode
0o666 less the umask, as a plain open() would; a write that fails
removes the sidecars it wrote.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import secrets
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import DigitCountMismatch, RecordParseError, UnverifiedFormula
from .exact import (_coprime_fraction, decimal_digit_count, format_decimal_head,
                    int_to_text, text_to_int)
from .machin import MachinFormula, verify_formula

SCHEMA_VERSION = 1

# Components at or above this many decimal digits move to sidecar files.
SIDECAR_THRESHOLD_DIGITS = 10_000

_INT_TEXT = re.compile(r"-?(0|[1-9][0-9]*)")


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
    # O_EXCL makes the temp file ours alone, and the OS applies the umask
    # to 0o666, so the file gets the mode a plain open() would give it.
    tmp = path.parent / f"{path.name}.{secrets.token_hex(8)}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _component_json(value: int, stem: str, label: str, sidecars: dict) -> dict:
    """JSON for one component; one at or above the threshold is added to
    `sidecars` (file name -> text) and referenced by name and hash."""
    text = int_to_text(value)
    if len(text.lstrip("-")) < SIDECAR_THRESHOLD_DIGITS:
        return {"value": text}
    filename = f"{stem}.{label}.txt"
    body = text + "\n"
    sidecars[filename] = body
    return {"file": filename, "sha256": _sha256_text(body)}


def write_record(record: FormulaRecord, path: str | os.PathLike) -> Path:
    """Serialize to JSON at `path`; huge second-term components become
    sidecar files next to it.  If any write fails, the sidecars this call
    wrote are removed again."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    sidecars: dict[str, str] = {}
    payload = _record_json(record, path.name.removesuffix(".json"), sidecars)
    written: list[Path] = []
    try:
        for filename, body in sidecars.items():
            _atomic_write_text(path.parent / filename, body)
            written.append(path.parent / filename)
        _atomic_write_text(path, json.dumps(payload, indent=2) + "\n")
    except BaseException:
        for sidecar in written:
            sidecar.unlink(missing_ok=True)
        raise
    return path


def _record_json(record: FormulaRecord, stem: str, sidecars: dict) -> dict:
    return {
        "schema_version": record.schema_version,
        "k": record.k,
        "denominator_policy": record.denominator_policy,
        "rounding": record.rounding,
        "u1": {"num": str(record.u1.numerator), "den": str(record.u1.denominator)},
        "epsilon_decimal": record.epsilon_decimal,
        "u2": {
            "num": _component_json(record.u2.numerator, stem, "u2num", sidecars),
            "den": _component_json(record.u2.denominator, stem, "u2den", sidecars),
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


def _int_from_text(text: str) -> int:
    """The integer that str(int) writes as `text`; any other spelling
    (sign, spaces, leading zeros, underscores, non-ASCII digits) or a
    non-string is a parse error."""
    if not isinstance(text, str) or not _INT_TEXT.fullmatch(text):
        raise RecordParseError(f"not an integer in canonical decimal text: {text!r:.40}")
    return text_to_int(text)


def _component_from_json(entry: dict, directory: Path) -> int:
    if "value" in entry:
        return _int_from_text(entry["value"])
    name = entry["file"]
    if not isinstance(name, str) or name in ("", ".", "..") or Path(name).name != name:
        raise RecordParseError(f"sidecar entry {name!r:.40} is not a file name")
    sidecar = directory / name
    try:
        body = sidecar.read_text()
    except OSError as exc:
        raise RecordParseError(f"sidecar {sidecar} unreadable: {exc}") from exc
    if _sha256_text(body) != entry["sha256"]:
        raise RecordParseError(f"sidecar {sidecar} content hash mismatch")
    if not body.endswith("\n"):
        raise RecordParseError(f"sidecar {sidecar} lacks its final newline")
    return _int_from_text(body[:-1])


def load_record(path: str | os.PathLike) -> FormulaRecord:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise RecordParseError(f"cannot read record {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer literal over the digit cap
        raise RecordParseError(f"record {path} is not valid JSON: {exc}") from exc
    try:
        return _record_from_json(payload, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordParseError(f"record {path} is malformed: {exc}") from exc


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _record_from_json(payload: dict, path: Path) -> FormulaRecord:
    version = payload["schema_version"]
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise RecordParseError(f"unsupported schema version {version!r:.40}")
    k = payload["k"]
    if not _is_int(k) or k < 1:
        raise RecordParseError(f"record {path}: k must be an integer >= 1")
    u1_num = _int_from_text(payload["u1"]["num"])
    u1_den = _int_from_text(payload["u1"]["den"])
    u2_num = _component_from_json(payload["u2"]["num"], path.parent)
    u2_den = _component_from_json(payload["u2"]["den"], path.parent)
    for num, den in ((u1_num, u1_den), (u2_num, u2_den)):
        if num == 0 or den <= 0 or math.gcd(num, den) != 1:
            raise RecordParseError(f"record {path}: u1 and u2 must be nonzero "
                                   "fractions in lowest terms, denominators positive")
    counts = payload["u2_digit_counts"]
    if not (_is_int(counts["num_digits"]) and _is_int(counts["den_digits"])):
        raise RecordParseError(f"record {path}: digit counts must be integers")
    return FormulaRecord(
        schema_version=version,
        k=k,
        denominator_policy=payload["denominator_policy"],
        rounding=payload["rounding"],
        u1=_coprime_fraction(u1_num, u1_den),
        epsilon_decimal=payload["epsilon_decimal"],
        u2=_coprime_fraction(u2_num, u2_den),
        u2_digit_counts=(counts["num_digits"], counts["den_digits"]),
        u2_decimal_head=payload["u2_decimal_head"],
        verified=payload["verified"],
        predicted_rate=payload["predicted_rate"],
        created_with=payload["created_with"],
    )


def _second_term_can_close(k: int, u1: Fraction, u2: Fraction) -> bool:
    """Necessary condition for pi/4 = 2**(k-1) arctan(1/u1) + arctan(1/u2),
    decided before the exact product of about 2**(k-1) log2|p + qi| bits
    is formed, so an edited k cannot stall verification.

    With u1 = p/q, u2 = r/s and n = 2**(k-1), validity means
    (p + qi)**n (r + si) = c (1 + i) for an integer c != 0.  Each odd
    Gaussian prime of (p + qi)**n and its conjugate then divide c, so
    r**2 + s**2 >= 2 ((p**2 + q**2) / 4**e)**n, with e = 1 when p and q
    are both odd and 0 otherwise; in bits, n log2((p**2 + q**2) / 4**e)
    < 2 max(bits(r), bits(s)).  |u1| = 1 makes that base 1/2 and the
    bound empty, but then n * pi/4 >= pi for k >= 3 and no arctangent
    closes the gap.
    """
    p, q = u1.numerator, u1.denominator
    log_base = math.log2(p * p + q * q) - 2 * (p & q & 1)
    if log_base <= 0:
        return k <= 2
    bits = max(u2.numerator.bit_length(), u2.denominator.bit_length())
    return (k - 1) + math.log2(log_base) < math.log2(2 * bits + 1)


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
    if not _second_term_can_close(record.k, record.u1, record.u2):
        raise UnverifiedFormula(
            f"record's formula cannot verify: 2**{record.k - 1} * arctan(1/u1) "
            "is too large for its second term to close"
        )
    outcome = verify_formula(record.formula())
    if not outcome.ok:
        raise UnverifiedFormula(
            f"record's formula fails verification: {outcome.summary()}"
        )
