#!/usr/bin/env python3
"""Time every link of the arctangent chains of compute-pi and print each
layer's growth rate.

Each request runs `machinpi compute-pi` in process: from the k = 3, 5
and 10 (floor) records, generated first as `machinpi generate` does, and
from the tower at depth 40 (`--k 40`), at each digit count of --digits
(10^3 and 10^4 by default; with 100000 added for 10^5 the run takes
about 90 s on a 2-vCPU Xeon with Python 3.11).  Every chain link is one
call for an integer cotangent m, of series.arctan_conjugate for a
chain's first link and of series._arccot_gregory for each later one,
and prints one row:

  m bits       the bits of the cotangent m
  evaluator    conjugate or gregory
  terms        the terms the link sums
  split ms     the binary split, series._lcm_split or _gregory_split
  z bits       the bits of the split's top operand: z, the longer of its
               two parts, or Gregory's denominator m L M**(terms - 1);
               a count that repeats exactly
  round ms     the final rounding, series._rounded_sum or the
               _rounded_quotient it ends in, from the cut operands to
               the certified mantissa
  num, den     the bits of the numerator and the divisor of its one
               division, FixedReal._from_ratio, against the scale

Each time is the best of --repeat runs of the whole request.  A shared
host's speed drifts by tens of percent between runs, so each request's
header also prints the median time of the benchmark's fixed probe
(perfbench.pace.probe, PROBES runs before and PROBES after the request),
and --json stores it as probe_s: two ladder runs compare as times per
probe, time / probe_s.  The slope
of log(time) against log(digits) of a request's split and rounding
totals is that layer's empirical growth exponent: about 1.58 for
Karatsuba products, and for the division, whose recursion
(exact.int_divmod) costs a few such products, plus the growth of the
term count.  From 10^3 to 10^5 digits the rounding's slope read 1.60
to 1.68 (1.71 to 1.91 with CPython's quadratic divmod).  It runs for
several seconds and is not part of the test suite:

    PYTHONPATH=src python scripts/chain_ladder.py [--digits 1000,10000]
        [--repeat 3] [--json chain.json]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import statistics
import sys
import tempfile
import time
from pathlib import Path

from machinpi import cli, series
from machinpi.realnum import FixedReal
from record_ladder import slope

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))  # the repository root
from perfbench.pace import probe  # noqa: E402 - importable from the root only

# (name, generate arguments or None for the tower, compute-pi source)
SOURCES = (("k3", ["3"], None), ("k5", ["5"], None),
           ("k10floor", ["10", "--round", "floor"], None),
           ("k40", None, ["--k", "40"]))
LAYERS = ("split", "round")
# Probe runs on each side of a request.
PROBES = 5


class LinkSpy:
    """Patches the series layer to record one row per chain link."""

    def __init__(self):
        self.rows: list[dict] = []
        self.depth = 0

    def _timed(self, fn, key):
        def wrapper(*args):
            self.depth += 1
            start = time.perf_counter()
            try:
                return fn(*args)
            finally:
                self.depth -= 1
                if self.depth == 0:  # the outermost call of a recursion
                    self.rows[-1][key] += time.perf_counter() - start
        return wrapper

    @contextlib.contextmanager
    def patched(self):
        saved = {name: getattr(series, name) for name in (
            "arctan_conjugate", "_arccot_gregory", "_lcm_split", "_gregory_split",
            "_rounded_sum", "_rounded_quotient")}
        from_ratio = FixedReal._from_ratio.__func__

        def link(evaluator, fn, m_of):
            def summed(x, terms, scale):  # x = 1/m, or m itself
                self.rows.append({"m_bits": m_of(x).bit_length(), "evaluator": evaluator,
                                  "terms": terms, "scale": scale, "split": 0.0,
                                  "round": 0.0})
                return fn(x, terms, scale)
            return summed

        def split_sum(split, z_bits):
            def summed(*args):
                result = split(*args)
                self.rows[-1]["z_bits"] = z_bits(result)
                return result
            return summed

        def division(cls, num, den, scale):
            if self.depth:  # inside the rounding
                self.rows[-1].update(num_bits=num.bit_length(), den_bits=den.bit_length())
            return from_ratio(cls, num, den, scale)

        try:
            series.arctan_conjugate = link("conjugate", saved["arctan_conjugate"],
                                           lambda x: x.denominator)
            series._arccot_gregory = link("gregory", saved["_arccot_gregory"], lambda m: m)
            series._lcm_split = self._timed(split_sum(
                saved["_lcm_split"], lambda r: max(r[1].bit_length(), r[2].bit_length())),
                "split")
            series._gregory_split = self._timed(split_sum(
                saved["_gregory_split"], lambda r: r[1].bit_length()), "split")
            # _rounded_sum ends in _rounded_quotient: the depth counts it once
            series._rounded_sum = self._timed(saved["_rounded_sum"], "round")
            series._rounded_quotient = self._timed(saved["_rounded_quotient"], "round")
            FixedReal._from_ratio = classmethod(division)
            yield self
        finally:
            for name, fn in saved.items():
                setattr(series, name, fn)
            FixedReal._from_ratio = classmethod(from_ratio)


def probe_times() -> list[float]:
    times = []
    for _ in range(PROBES):
        start = time.perf_counter()
        probe()
        times.append(time.perf_counter() - start)
    return times


def run_request(argv: list[str], repeat: int) -> list[dict]:
    """The links of one compute-pi request, each time the best of
    `repeat` runs."""
    best: list[dict] = []
    for _ in range(repeat):
        spy = LinkSpy()
        with spy.patched(), contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            assert cli.main(argv) == 0
        if not best:
            best = spy.rows
        for kept, row in zip(best, spy.rows):
            for layer in LAYERS:
                kept[layer] = min(kept[layer], row[layer])
    return best


def print_request(name: str, digits: int, links: list[dict], probe_s: float) -> None:
    print(f"{name} --digits {digits}: {len(links)} links, scale {links[0]['scale']}, "
          f"probe {probe_s * 1e3:.3f} ms")
    print(f"  {'m bits':>8} {'evaluator':>9} {'terms':>6} {'split ms':>9} {'z bits':>9} "
          f"{'round ms':>9} {'num bits':>9} {'den bits':>9}")
    for row in links:
        print(f"  {row['m_bits']:8d} {row['evaluator']:>9} {row['terms']:6d} "
              f"{row['split'] * 1e3:9.3f} "
              f"{row['z_bits']:9d} {row['round'] * 1e3:9.3f} {row['num_bits']:9d} "
              f"{row['den_bits']:9d}", flush=True)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--digits", default="1000,10000",
                        help="comma-separated digit counts")
    parser.add_argument("--repeat", type=int, default=3)
    parser.add_argument("--json", help="also write the rows and slopes here")
    args = parser.parse_args(argv)
    ladder = [int(part) for part in args.digits.split(",") if part]
    if len(ladder) < 2 or min(ladder) < 1 or args.repeat < 1:
        parser.error("need at least two positive digit counts and --repeat >= 1")

    requests, slopes = [], {}
    with tempfile.TemporaryDirectory() as work:
        for name, generate, source in SOURCES:
            if generate:
                path = str(Path(work) / f"{name}.json")
                with contextlib.redirect_stdout(io.StringIO()):
                    assert cli.main(["generate", *generate, "--out", path]) == 0
                source = ["--formula", path]
            totals = {layer: [] for layer in LAYERS}
            for digits in ladder:
                before = probe_times()
                links = run_request(["compute-pi", *source, "--digits", str(digits)],
                                    args.repeat)
                probe_s = statistics.median(before + probe_times())
                print_request(name, digits, links, probe_s)
                requests.append({"source": name, "digits": digits, "probe_s": probe_s,
                                 "links": links})
                for layer in LAYERS:
                    totals[layer].append(sum(row[layer] for row in links))
            slopes[name] = {layer: slope(ladder, totals[layer]) for layer in LAYERS}
            print(f"slope {name}: " + " ".join(
                f"{layer} {value:.2f}" for layer, value in slopes[name].items()))
    if args.json:
        Path(args.json).write_text(json.dumps({
            "python": platform.python_version(), "repeat": args.repeat,
            "requests": requests, "slopes": slopes}, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
