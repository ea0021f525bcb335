"""Formula records: versioned JSON artifacts with big-value sidecars.

Unbounded integers are stored as decimal strings so any JSON parser
round-trips them exactly.  u2 is held as that text from end to end:
generate solves it as decimal text (machin.second_term_text) and writes
it, the digit counts are the texts' lengths, and the record check
re-solves u2 the same way and compares strings, so neither writing nor
checking converts u2 between binary and decimal.  compute-pi hands the
series u2's text (FormulaRecord.terms), read from its leading digits;
FormulaRecord.u2, the Fraction, is converted only for callers that need
it whole (bench).
Second-term components at or above the inline threshold go to sidecar
text files (decimal digits, optional leading minus, trailing newline)
referenced by file name plus content hash; loading verifies the hash.
Loading accepts each component only in the layout writing gives it,
integer text only in the form str(int) writes, u1 only in lowest terms,
both fractions only over a positive denominator, and sidecars only by
bare file name in the record's directory, so an edited record cannot
keep its meaning under a different spelling or read digits from
elsewhere.  No gcd runs on u2's parts: load_record returns only a
record whose proof (check_record) has found them equal to u2 re-solved
from k and u1, which is in lowest terms.  Writes are atomic (temp file
then rename), byte-deterministic, and create files with mode 0o666 less
the umask, as a plain open() would; a write that fails removes the
sidecars it wrote.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import os
import re
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import __version__
from .errors import DigitCountMismatch, RecordParseError, UnverifiedFormula
from .exact import _coprime_fraction, decimal_head, fraction_from_text
from .machin import MAX_POWER_BITS, MachinFormula, check_second_term

SCHEMA_VERSION = 1

# Components at or above this many decimal digits move to sidecar files.
SIDECAR_THRESHOLD_DIGITS = 10_000

_INT_TEXT = re.compile(r"0|-?[1-9][0-9]*")

_LOG2_10 = math.log2(10)


@dataclass(frozen=True)
class FormulaRecord:
    schema_version: int
    k: int
    denominator_policy: int
    rounding: str
    u1: Fraction
    epsilon_decimal: str
    u2_text: tuple[str, str]  # (num, den) as decimal text, as stored
    u2_digit_counts: tuple[int, int]
    u2_decimal_head: str
    verified: bool
    predicted_rate: float
    created_with: str

    @functools.cached_property
    def u2(self) -> Fraction:
        """u2 as a Fraction, converted from u2_text on first use, for the
        callers that need it whole (bench)."""
        return fraction_from_text(*self.u2_text)

    @property
    def terms(self) -> tuple:
        """The formula's terms with u2 as its stored text, which the series
        reads from its leading digits, both for its chain and its rate
        (series._dyadic_floor)."""
        return (1 << (self.k - 1), self.u1), (1, self.u2_text)

    @functools.cached_property
    def proof(self) -> None:
        """check_record(self), kept on this instance once it passes."""
        check_record(self)

    def formula(self) -> MachinFormula:
        """The formula with u2 whole (bench), with a proof of its own."""
        return MachinFormula.two_term(self.k, self.u1, self.u2)


def build_record(
    k: int,
    denominator_policy: int,
    rounding: str,
    u1: Fraction,
    epsilon_decimal: str,
    u2_text: tuple[str, str],
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
        u2_text=u2_text,
        u2_digit_counts=_digit_counts(u2_text),
        u2_decimal_head=decimal_head(*u2_text),
        verified=verified,
        predicted_rate=predicted_rate,
        created_with=f"machinpi {__version__}",
    )


def _digit_counts(u2_text: tuple[str, str]) -> tuple[int, int]:
    num, den = u2_text
    return len(num) - num.startswith("-"), len(den)


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def _atomic_write_text(path: Path, text: str) -> None:
    # O_EXCL makes the temp file ours alone, and the OS applies the umask
    # to 0o666, so the file gets the mode a plain open() would give it.
    tmp = path.parent / f"{path.name}.{os.urandom(8).hex()}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _component_json(text: str, stem: str, label: str, sidecars: dict) -> dict:
    """JSON for one component's text; one at or above the threshold is
    added to `sidecars` (file name -> text) and referenced by name and
    hash."""
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
            "num": _component_json(record.u2_text[0], stem, "u2num", sidecars),
            "den": _component_json(record.u2_text[1], stem, "u2den", sidecars),
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


def _canonical_text(text: str) -> str:
    """`text` if it is an integer as str(int) writes it; any other
    spelling (sign, spaces, leading zeros, underscores, non-ASCII digits,
    "-0") or a non-string is a parse error."""
    if not isinstance(text, str) or not _INT_TEXT.fullmatch(text):
        raise RecordParseError(f"not an integer in canonical decimal text: {text!r:.40}")
    return text


def _component_from_json(entry: dict, directory: Path) -> str:
    """One u2 part's text, only in the layout _component_json gives it."""
    inline = "value" in entry
    text = _canonical_text(entry["value"] if inline else _sidecar_text(entry, directory))
    if (len(text.lstrip("-")) < SIDECAR_THRESHOLD_DIGITS) != inline:
        raise RecordParseError(f"u2 part stored {'inline' if inline else 'in a sidecar'}"
                               f" against the {SIDECAR_THRESHOLD_DIGITS}-digit threshold")
    return text


def _sidecar_text(entry: dict, directory: Path) -> str:
    """The integer text of a sidecar entry, checked by name and hash."""
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
    return body[:-1]


def load_record(path: str | os.PathLike) -> FormulaRecord:
    """Read a record in canonical form and prove what it claims by its
    cached proof (check_record).  u2's parts are too large for a gcd, so
    check_record proves their lowest terms by re-solving u2 instead, and
    no record with an unreduced u2 is returned.  RecordParseError,
    DigitCountMismatch or UnverifiedFormula on failure."""
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except OSError as exc:
        raise RecordParseError(f"cannot read record {path}: {exc}") from exc
    except ValueError as exc:  # bad JSON, or an integer literal over the digit cap
        raise RecordParseError(f"record {path} is not valid JSON: {exc}") from exc
    try:
        record = _record_from_json(payload, path)
    except (KeyError, TypeError, ValueError) as exc:
        raise RecordParseError(f"record {path} is malformed: {exc}") from exc
    record.proof
    return record


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _record_from_json(payload: dict, path: Path) -> FormulaRecord:
    version = payload["schema_version"]
    if not _is_int(version) or version != SCHEMA_VERSION:
        raise RecordParseError(f"unsupported schema version {version!r:.40}")
    k = payload["k"]
    if not _is_int(k) or k < 1:
        raise RecordParseError(f"record {path}: k must be an integer >= 1")
    # u1 is written by str(int) and read back by int(): a part past the
    # process's int <-> str digit cap is malformed (ValueError).
    u1_num = int(_canonical_text(payload["u1"]["num"]))
    u1_den = int(_canonical_text(payload["u1"]["den"]))
    u2_num = _component_from_json(payload["u2"]["num"], path.parent)
    u2_den = _component_from_json(payload["u2"]["den"], path.parent)
    if (u1_num == 0 or u1_den <= 0 or math.gcd(u1_num, u1_den) != 1
            or u2_num == "0" or u2_den == "0" or u2_den.startswith("-")):
        raise RecordParseError(f"record {path}: u1 and u2 must be nonzero "
                               "fractions, u1 in lowest terms, denominators positive")
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
        u2_text=(u2_num, u2_den),
        u2_digit_counts=(counts["num_digits"], counts["den_digits"]),
        u2_decimal_head=payload["u2_decimal_head"],
        verified=payload["verified"],
        predicted_rate=payload["predicted_rate"],
        created_with=payload["created_with"],
    )


def _second_term_can_close(k: int, u1: Fraction, u2_text: tuple[str, str]) -> bool:
    """Necessary condition for pi/4 = 2**(k-1) arctan(1/u1) + arctan(1/u2),
    decided before the Gaussian power of about 2**(k-1) log2|p + qi| bits
    is formed, so an edited k cannot stall verification.

    With u1 = p/q, u2 = r/s and n = 2**(k-1), validity means
    (p + qi)**n (r + si) = c (1 + i) for an integer c != 0.  Each odd
    Gaussian prime of (p + qi)**n and its conjugate then divide c, so
    r**2 + s**2 >= 2 ((p**2 + q**2) / 4**e)**n, with e = 1 when p and q
    are both odd and 0 otherwise; in bits, n log2((p**2 + q**2) / 4**e)
    < 2 max(bits(r), bits(s)).  The bits are bounded above from the digit
    counts (a part of d digits is below 10**d, so it has at most
    ceil(d log2(10)) bits; one more covers the float product), which
    keeps the condition necessary.  |u1| = 1 makes that base 1/2 and the
    bound empty, but then n * pi/4 >= pi for k >= 3 and no arctangent
    closes the gap.  k is capped at MAX_POWER_BITS, where the test fails
    already, so that no huge int meets a float.
    """
    p, q = u1.numerator, u1.denominator
    log_base = math.log2(p * p + q * q) - 2 * (p & q & 1)
    if log_base <= 0:
        return k <= 2
    bits = max(_digit_counts(u2_text)) * _LOG2_10 + 2
    return min(k, MAX_POWER_BITS) - 1 + math.log2(log_base) < math.log2(2 * bits + 1)


def check_record(record: FormulaRecord) -> None:
    """Recompute what the record claims from its u2 text, in this order:
    that u2's parts are not both even, read off their last digits
    (RecordParseError), the digit counts as the texts' lengths
    (DigitCountMismatch), a k too large for u2 to close, then u2
    re-solved as text and compared (machin.check_second_term): its value
    and branch (UnverifiedFormula) and its lowest terms
    (RecordParseError)."""
    num, den = record.u2_text
    if not (int(num[-1]) | int(den[-1])) & 1:
        raise RecordParseError("record's u2 is not in lowest terms: both parts are even")
    actual = _digit_counts(record.u2_text)
    if actual != record.u2_digit_counts:
        raise DigitCountMismatch(
            f"stored digit counts {record.u2_digit_counts} but value has {actual}"
        )
    if not _second_term_can_close(record.k, record.u1, record.u2_text):
        raise UnverifiedFormula(
            f"record's formula cannot verify: 2**{record.k - 1} * arctan(1/u1) "
            "is too large for its second term to close"
        )
    if not check_second_term(record.k, record.u1, record.u2_text):
        raise RecordParseError("record's u2 is not in lowest terms")
