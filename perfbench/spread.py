"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 -m perfbench.spread --workload digits --seeds 1-10

Runs run.py once per seed with BENCHMARK.json's run_seconds, one after
another, and prints for each metric
its median and the distance between the first and third quartile
(statistics.quantiles, n=4) as a share of the median, which is how a
metric's spread is compared with its bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def relative_spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.spread")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", help="first-last, inclusive")
    args = parser.parse_args(argv)

    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = config["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in config["end_to_end"]}
    first, last = (int(part) for part in args.seeds.split("-"))
    samples: dict[str, list[float]] = {}
    for seed in range(first, last + 1):
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=200, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        if not result["correct"]:
            print(f"seed {seed}: incorrect output\n{proc.stderr}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            samples.setdefault(name, []).append(metric["value"])
        print(f"seed {seed}: " + " ".join(
            f"{name}={metric['value']:.4f}" for name, metric in result["metrics"].items()),
            flush=True)
    for name, values in samples.items():
        spread = relative_spread(values)
        bound = bounds.get(name)
        print(f"{args.workload:8s} {name:12s} median {statistics.median(values):.4f} "
              f"spread {spread:.4f} bound {bound} "
              f"({'within a third' if bound and spread < bound / 3 else 'check'})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
