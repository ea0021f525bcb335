"""machinpi benchmark: one workload, one run, one JSON result line.

    python3 perfbench/run.py --workload {formula,digits,tower,rates} \
        --seed N --seconds S --trace {0,1}

Drives machinpi only through machinpi.cli.main, in-process, with one
client in a closed loop (single process, single thread, each command
sent after the previous one returns).  Every process it starts is a
fresh `python3 -m perfbench.worker` with its own MACHINPI_DIR under
.perfbench_runs/ in the checkout:

* SETUP_REPEATS - 1 set-up-only workers, then one measuring worker that
  sets up once more and runs passes for --seconds (at least two passes,
  so a run may take longer).  setup_s is the median of all set-ups.
* --trace 0 reports the end-to-end metrics: paced_wall_s (median pass),
  setup_s and peak_rss_mb (the measuring worker's peak RSS).  Both
  times are paced (pace.py): wall time scaled to a nominal host speed
  measured by a fixed probe around and during each timed interval, so
  that a shared host's drifting speed does not swamp them.  The raw
  wall_s and setup_wall_s, and host_slowdown (median probe time over
  its nominal), are printed beside them.
* --trace 1 runs half the budget untraced and half with every layer's
  public functions wrapped (spans.py), and reports the per-layer
  metrics, the size-ladder slopes and tracing_overhead_s.

Every command's output is checked against oracles.py; a mismatch counts
as a failed request.  Human-readable lines, including the per-command
times (generate_s, verify_s, compute_pi_s, bench_s) and fail_ratio, come
first (command times are paced); the last stdout line is the JSON
result.  The full result, with
Python version, nproc, seed and commit, is kept in result.json in the
run's directory.  Exits 2 when the checkout has no machinpi source and
1 when a worker fails, printing no result in either case.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

from perfbench import pace, spans, workloads  # noqa: E402

SETUP_REPEATS = 7
RUN_LIMIT_S = 170.0
COMMAND_METRICS = {"generate": "generate_s", "verify": "verify_s",
                   "compute-pi": "compute_pi_s", "bench": "bench_s"}


class WorkerFailed(RuntimeError):
    pass


def run_worker(options: list[str], deadline: float) -> dict:
    out = Path(options[options.index("--out") + 1])
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "perfbench.worker", *options],
            cwd=ROOT, capture_output=True, text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"worker passed the {RUN_LIMIT_S:.0f} s run limit") from exc
    if proc.returncode != 0:
        raise WorkerFailed(f"worker exited {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(out.read_text())


def commit_id() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    src = ROOT / "src" / "machinpi"
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def summarize(worker: dict, setups: list[dict], trace: int) -> dict:
    passes = worker["passes"]
    traced = worker.get("traced_passes", [])
    all_passes = passes + traced
    attempted = worker["setup_attempted"] + sum(p["attempted"] for p in all_passes)
    failed = worker["setup_failed"] + sum(p["failed"] for p in all_passes)
    commands = {
        metric: statistics.median(p["commands"].get(command, 0.0) for p in passes)
        for command, metric in COMMAND_METRICS.items()
        if command in passes[0]["commands"]
    }
    summary = {
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "paced_wall_s": (statistics.median(p["paced_s"] for p in passes), "s"),
            "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
            "peak_rss_mb": (worker["peak_rss_mb"], "MB"),
        },
        "reported": {
            "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
            "setup_wall_s": (statistics.median(s["setup_wall_s"] for s in setups), "s"),
            **{metric: (value, "s") for metric, value in commands.items()},
            "fail_ratio": (failed / attempted, "ratio"),
            "host_slowdown": (worker["probe_median_s"] / pace.NOMINAL_PROBE_S, "x"),
        },
        "passes": len(passes),
        "traced_passes": len(traced),
        "problems": worker["setup_problems"] + [q for p in all_passes for q in p["problems"]],
    }
    if trace:
        layers = {
            metric: statistics.median(p["layers"][metric] for p in traced)
            for metric in traced[0]["layers"]
        }
        layers["tracing_overhead_s"] = (
            statistics.median(p["wall_s"] for p in traced) - summary["reported"]["wall_s"][0])
        for name, slope in worker["slopes"].items():
            layers[f"{name}.slope"] = slope
        summary["per_layer"] = {
            metric: (layers[metric], unit)
            for metric, unit in spans.PER_LAYER_UNITS.items()
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "machinpi" / "cli.py").is_file():
        print(f"error: no machinpi source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_LIMIT_S
    run_dir = ROOT / ".perfbench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = [
            run_worker([*common, "--setup-only", "--dir", str(run_dir / f"setup{i}"),
                        "--out", str(run_dir / f"setup{i}.json")], deadline)
            for i in range(SETUP_REPEATS - 1)
        ]
        worker = run_worker([*common, "--dir", str(run_dir / "work"),
                             "--out", str(run_dir / "worker.json"),
                             "--seconds", str(args.seconds), "--trace", str(args.trace)],
                            deadline)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        for i in range(SETUP_REPEATS - 1):
            shutil.rmtree(run_dir / f"setup{i}", ignore_errors=True)
        shutil.rmtree(run_dir / "work", ignore_errors=True)
    setups.append(worker)

    summary = summarize(worker, setups, args.trace)
    environment = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "machine": platform.machine(), "nproc": os.cpu_count(),
        "commit": commit_id(), "source_sha256": source_digest(),
    }
    (run_dir / "result.json").write_text(
        json.dumps({"environment": environment,
                    "setup_s_samples": [s["setup_s"] for s in setups],
                    **summary}, indent=1) + "\n")

    print(" ".join(f"{key}={value}" for key, value in environment.items()))
    print(f"passes: {summary['passes']} untraced, {summary['traced_passes']} traced; "
          f"setup_s is the median of {len(setups)} set-ups")
    sections = ["end_to_end", "reported"] + (["per_layer"] if args.trace else [])
    for section in sections:
        for name, (value, unit) in summary[section].items():
            print(f"  {section:10s} {name:38s} {value:.6g} {unit}")
    if args.trace and args.workload == "formula":
        classes = spans.GROWTH_CLASSES
        print(f"  size-ladder slopes over k = {workloads.FORMULA_DEPTHS}, against "
              + ", ".join(f"{name} {slope:.3f}" for name, slope in classes.items()))
        for name, slope in worker["slopes"].items():
            nearest = min(classes, key=lambda c: abs(classes[c] - slope))
            print(f"    {name}: {slope:.3f}, nearest {nearest}")
    if worker.get("untraced_targets"):
        print("  not traced, absent from machinpi: " + ", ".join(worker["untraced_targets"]))
    for problem in summary["problems"][:20]:
        print(f"FAILED {problem}", file=sys.stderr)

    metrics = summary["per_layer"] if args.trace else summary["end_to_end"]
    print(json.dumps({
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
