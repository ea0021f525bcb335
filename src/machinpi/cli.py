"""Command-line interface.

Subcommands: generate, verify, compute-pi, bench, solve-second.

Exit codes (scriptable, one per kind of failure):
  0  success
  2  usage error (includes a working scale over machin.MAX_POWER_BITS)
  3  record/sidecar parse or integrity failure
  4  exact verification failed (or not exactly verifiable)
  5  precision exhausted (ambiguous rounding, cancellation, no digit certified)
  6  degenerate second term
  7  stored digit counts disagree with the stored value
  8  rounding residual too large for the requested denominator policy

Each code from 3 to 8 is one class of machinpi.errors and its subclasses
(_EXIT_BY_ERROR); ValueError is a usage error.

A record is checked in a fixed order, and its first failure decides the
code: parsing (3), a u2 with both parts even (3), digit counts (7), a k
too large for u2 to close (4), then u2 re-solved and compared: another
value or branch (4), the same value not in lowest terms (3).  So a u2
whose parts share an odd factor and that also fails verification exits 4.

MACHINPI_DIR, when set, is the default directory for records and reports.
Primary outputs are byte-deterministic; timing goes to stderr only.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from .analysis import (
    KNOWN_DIGITS_PER_TERM,
    measure_convergence,
    reference_digits,
    validated_pi_reference,
)
from .errors import (
    AmbiguousRounding,
    DegenerateSecondTerm,
    DigitCountMismatch,
    EpsilonTooLarge,
    PrecisionExhausted,
    RecordParseError,
    UnverifiedFormula,
)
from .exact import decimal_head, parse_rational
from .machin import check_tower_depth, closing_turns, second_term_text, term_text
from .radicals import eval_radicals, select_u1
from .records import FormulaRecord, build_record, load_record, write_record
from .series import digits_per_term, pi_digits_from_formula, pi_digits_from_radicals

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_PARSE = 3
EXIT_VERIFICATION = 4
EXIT_PRECISION = 5
EXIT_DEGENERATE = 6
EXIT_DIGIT_COUNT = 7
EXIT_EPSILON = 8

_EXIT_BY_ERROR = (
    (RecordParseError, EXIT_PARSE),
    (UnverifiedFormula, EXIT_VERIFICATION),
    (PrecisionExhausted, EXIT_PRECISION),
    (DegenerateSecondTerm, EXIT_DEGENERATE),
    (DigitCountMismatch, EXIT_DIGIT_COUNT),
    (EpsilonTooLarge, EXIT_EPSILON),
    # Failed reads surface as RecordParseError, so an OSError is a write.
    (OSError, EXIT_USAGE),
)


def _work_dir() -> Path:
    return Path(os.environ.get("MACHINPI_DIR", "."))


# Tower digits requested before selection: enough for the 20-digit
# residual display plus slack.
_SELECTION_DIGITS = 26


def generate_record(k: int, denominator: int, rounding: str) -> FormulaRecord:
    """Full pipeline: tower -> rational rounding -> exact second term, as
    decimal text -> branch check (the closed form passes the product check
    by design).  Up to four towers, at 26 to 50 digits, until u1 and 20
    digits of eps are certain; a depth past MAX_POWER_BITS is refused
    before the first."""
    check_tower_depth(k)
    digits = _SELECTION_DIGITS
    for _ in range(4):
        try:
            selection = select_u1(eval_radicals(k, digits), denominator, rounding)
            eps_text, ok = selection.epsilon.to_decimal(20)
        except AmbiguousRounding:
            ok = False
        if ok:
            break
        digits += 8
    else:
        raise PrecisionExhausted("could not pin u1 and 20 digits of the residual")
    u2_text = second_term_text(1 << (k - 1), selection.u1)
    verified = closing_turns(1 << (k - 1), selection.u1, u2_text) == 0
    return build_record(
        k=k,
        denominator_policy=denominator,
        rounding=rounding,
        u1=selection.u1,
        epsilon_decimal=eps_text,
        u2_text=u2_text,
        verified=verified,
        predicted_rate=digits_per_term(selection.u1),
    )


def _cmd_generate(args) -> int:
    record = generate_record(args.k, args.den, args.round)
    out = Path(args.out) if args.out else _work_dir() / f"formula_k{args.k}.json"
    write_record(record, out)
    num, den = record.u2_digit_counts
    print(f"k = {record.k}  (denominator policy {record.denominator_policy}, "
          f"{record.rounding} rounding)")
    print(f"u1 = {record.u1}")
    print(f"eps = {record.epsilon_decimal}")
    print(f"u2 ~ {record.u2_decimal_head}  ({num}/{den} digits)")
    print(f"verified = {str(record.verified).lower()}")
    print(f"predicted digits/term = {record.predicted_rate:.4f}")
    print(f"record written to {out}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    load_record(args.record)
    print(f"{args.record}: verified exactly; digit counts match")
    return EXIT_OK


def _cmd_compute_pi(args) -> int:
    if (args.formula is None) == (args.k is None):
        raise ValueError("exactly one of --formula or --k is required")
    if (args.digits is None) == (args.terms is None):
        raise ValueError("exactly one of --digits or --terms is required")
    if args.digits is not None and args.digits < 1:
        raise ValueError("--digits must be at least 1")
    if args.terms is not None and args.terms < 1:
        raise ValueError("--terms must be at least 1")

    if args.formula is not None:
        # load_record proves the record (FormulaRecord.proof, kept on it, so
        # the series does not prove it again); "verified" is not trusted.
        record = load_record(args.formula)
        text, result = pi_digits_from_formula(record, args.digits, args.terms)
    else:
        text, result = pi_digits_from_radicals(args.k, args.digits, args.terms)

    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    print(
        f"terms used: {'+'.join(map(str, result.term_counts))}; measured digits/term: "
        f"{result.per_term_log10:.3f}",
        file=sys.stderr,
    )
    return EXIT_OK


def _bench_formula(k: int):
    """Record for one depth, on tenths when the integer grid puts the
    rounding residual over the smallness limit.  Tenths always suffice:
    |eps| <= 1/20 there, while u1 >= 12/5 at every depth k >= 2."""
    try:
        return generate_record(k, 1, "nearest")
    except EpsilonTooLarge:
        return generate_record(k, 10, "nearest")


def _cmd_bench(args) -> int:
    ks = [int(part) for part in args.k.split(",") if part]
    if not ks:
        raise ValueError("--k needs at least one depth")
    for k in ks:  # refuse a hopeless depth before any tower of the list
        check_tower_depth(k)
    records = [_bench_formula(k) for k in ks]
    ceiling = max(reference_digits(r.predicted_rate, args.max_terms) for r in records)
    reference = validated_pi_reference(ceiling + 4)
    reports = []
    for record in records:
        report = measure_convergence(record.formula(), args.max_terms, reference)
        reports.append(report)
        print(
            f"k={record.k}: {report.wall_time_per_term * 1e3:.3f} ms/term",
            file=sys.stderr,
        )

    out_dir = Path(args.out) if args.out else _work_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema_version": 1,
        "max_terms": args.max_terms,
        "reports": [
            {
                "k": record.k,
                "u1": {
                    "num": str(rep.u1.numerator),
                    "den": str(rep.u1.denominator),
                },
                # one sample cannot define a slope; store null, not NaN
                "measured_digits_per_term": (
                    None
                    if rep.measured_digits_per_term != rep.measured_digits_per_term
                    else rep.measured_digits_per_term
                ),
                "predicted_digits_per_term": rep.predicted_digits_per_term,
                "reference_rate": KNOWN_DIGITS_PER_TERM.get(record.k),
                "samples": [list(s) for s in rep.samples],
                "rate_within_band": rep.rate_within_band,
            }
            for record, rep in zip(records, reports)
        ],
    }
    json_path = out_dir / "bench_report.json"
    json_path.write_text(json.dumps(payload, indent=2) + "\n")

    lines = [
        f"{'k':>4s} {'u1':>14s} {'measured':>10s} {'predicted':>10s} {'published':>10s}"
    ]
    for record, rep in zip(records, reports):
        published = str(KNOWN_DIGITS_PER_TERM.get(record.k, "-"))
        lines.append(
            f"{record.k:4d} {str(rep.u1):>14s} "
            f"{rep.measured_digits_per_term:10.3f} "
            f"{rep.predicted_digits_per_term:10.3f} {published:>10s}"
        )
    table = "\n".join(lines) + "\n"
    (out_dir / "bench_report.txt").write_text(table)
    print(table, end="")
    print(f"reports written to {json_path} and {out_dir / 'bench_report.txt'}")
    return EXIT_OK


def _cmd_solve_second(args) -> int:
    beta1 = parse_rational(args.beta1)
    num, den = second_term_text(args.alpha1, beta1)
    turns = closing_turns(args.alpha1, beta1, (num, den))
    if turns:
        raise DegenerateSecondTerm(f"{term_text(args.alpha1, beta1)} plus its closing "
                                   f"term is pi/4 {turns:+d}*pi; none closes pi/4")
    print(f"beta2 = {num}/{den}")
    print(f"      ~ {decimal_head(num, den)}")
    return EXIT_OK


# One parser per process: parsing does not change it, and one per call left
# reference cycles that raised a long-lived caller's peak RSS call by call.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machinpi",
        description="Generate, verify, and benchmark two-term arctangent "
        "formulas for pi, and compute pi digits from them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="build and verify a formula at depth k")
    p.add_argument("k", type=int)
    p.add_argument("--den", type=int, default=1,
                   help="round the tower value to multiples of 1/DEN (default 1)")
    p.add_argument("--round", choices=("nearest", "floor"), default="nearest")
    p.add_argument("--out", help="record path (default formula_k<k>.json)")
    p.set_defaults(fn=_cmd_generate)

    p = sub.add_parser("verify", help="re-verify a stored record exactly")
    p.add_argument("record")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("compute-pi", help="compute pi digits")
    p.add_argument("--formula", help="formula record to evaluate")
    p.add_argument("--k", type=int, help="evaluate the depth-k tower instead")
    p.add_argument("--digits", type=int, help="validated digit target")
    p.add_argument("--terms", type=int, help="fixed term budget")
    p.add_argument("--out", help="also write the digits to this file")
    p.set_defaults(fn=_cmd_compute_pi)

    p = sub.add_parser("bench", help="measure digits-per-term convergence")
    p.add_argument("--k", required=True, help="comma-separated depths")
    p.add_argument("--max-terms", type=int, default=20)
    p.add_argument("--out", help="report directory (default MACHINPI_DIR or .)")
    p.set_defaults(fn=_cmd_bench)

    p = sub.add_parser("solve-second",
                       help="exact second argument for a given first term")
    p.add_argument("--alpha1", type=int, required=True)
    p.add_argument("--beta1", required=True, help="rational, e.g. 5 or 24/10")
    p.set_defaults(fn=_cmd_solve_second)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        for cls, code in _EXIT_BY_ERROR:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    raise SystemExit(main())
