#!/usr/bin/env python3
"""Time the record path on a ladder of depths and print each layer's
growth rate.

For each depth k (13..17 by default) the script generates the record in
process, as `machinpi generate k` does, and times three layers on it:

  generate       the whole command: tower, u2 solved as decimal text,
                 branch check and the record write
  check_record   digit counts, then u2 solved again from k and u1 and
                 compared with the stored text, and the branch check
  compute_pi     the whole `machinpi compute-pi --formula ... --digits
                 1000` command: load and check the record, then the
                 series, which reads u2 from its leading digits

Each time is the best of --repeat runs.  u2's parts double in size with
each depth, so the least-squares slope of log(time) against log(bits of
u2) is the layer's empirical growth exponent: about 1.58 for Karatsuba
integer products, closer to 1 for libmpdec's products and decimal text,
2 for a quadratic loop.  Each row also carries the sha256 of every file
the record was written to, and compute-pi's stdout hash and stderr, so
two runs (two commits) can be checked to write byte-identical records
and print the same digits.  It runs for several seconds and is not
part of the test suite:

    PYTHONPATH=src python scripts/record_ladder.py [--depths 13-17]
        [--repeat 3] [--json ladder.json]
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import platform
import sys
import tempfile
import time
from pathlib import Path

from machinpi import cli
from machinpi.exact import text_to_int
from machinpi.records import check_record, load_record

LAYERS = ("generate", "check_record", "compute_pi")


def best_of(repeat: int, fn) -> float:
    best = math.inf
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of log(ys) against log(xs)."""
    lx, ly = [math.log(x) for x in xs], [math.log(y) for y in ys]
    mx, my = sum(lx) / len(lx), sum(ly) / len(ly)
    return (sum((a - mx) * (b - my) for a, b in zip(lx, ly))
            / sum((a - mx) ** 2 for a in lx))


def measure(k: int, repeat: int, work: Path) -> dict:
    directory = work / f"k{k}"
    directory.mkdir()
    path = directory / f"formula_k{k}.json"

    def generate():
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["generate", str(k), "--out", str(path)]) == 0

    row = {"k": k, "generate": best_of(repeat, generate)}
    record = load_record(path)
    texts = record.u2_text
    row["u2_bits"] = max(text_to_int(text).bit_length() for text in texts)
    row["u2_digits"] = max(len(text.lstrip("-")) for text in texts)
    row["check_record"] = best_of(repeat, lambda: check_record(record))

    out, err = io.StringIO(), io.StringIO()

    def compute_pi():
        out.seek(0), out.truncate(), err.seek(0), err.truncate()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert cli.main(["compute-pi", "--formula", str(path), "--digits", "1000"]) == 0

    row["compute_pi"] = best_of(repeat, compute_pi)
    row["compute_pi_stdout_sha256"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
    row["compute_pi_stderr"] = err.getvalue()
    row["files_sha256"] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                           for p in sorted(directory.iterdir())}
    return row


def parse_depths(text: str) -> list[int]:
    low, _, high = text.partition("-")
    return list(range(int(low), int(high or low) + 1))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--depths", default="13-17", help="range, e.g. 13-17")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", help="also write the table and slopes here")
    args = parser.parse_args(argv)
    depths = parse_depths(args.depths)
    if len(depths) < 2 or depths[0] < 3:
        parser.error("need at least two depths, each at least 3")

    rows = []
    with tempfile.TemporaryDirectory() as work:
        print(f"{'k':>3} {'u2 bits':>9} " + " ".join(f"{name:>13}" for name in LAYERS))
        for k in depths:
            row = measure(k, args.repeat, Path(work))
            rows.append(row)
            print(f"{k:3d} {row['u2_bits']:9d} "
                  + " ".join(f"{row[name]:12.4f}s" for name in LAYERS), flush=True)
    bits = [row["u2_bits"] for row in rows]
    slopes = {name: slope(bits, [row[name] for row in rows]) for name in LAYERS}
    print("slope " + " ".join(f"{name} {value:.2f}" for name, value in slopes.items()))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "python": platform.python_version(), "repeat": args.repeat,
            "rows": rows, "slopes": slopes}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
