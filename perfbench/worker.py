"""One benchmark process: set-up, then timed passes through machinpi.cli.main.

run.py starts each worker as a fresh process:

    python3 -m perfbench.worker --workload W --seed N --dir D --out R.json \
        [--seconds S] [--trace 0|1] [--setup-only]

D becomes MACHINPI_DIR.  The worker times `import machinpi` plus the
workload's set-up requests (setup_s), then runs passes in a closed loop,
one command at a time: at least two, then more until the next pass would
overrun the budget.  Set-up and untraced passes are timed twice: as wall
time and as paced time, at the nominal host speed of pace.py.
With --trace 1 half the budget runs untraced and half traced (wall time
only, no probes).  Outputs are judged against the oracles after each
pass, outside timed intervals.
Results go to R.json and, for a traced run, spans to spans.json beside it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from . import oracles, pace, spans, workloads

ROOT = Path(__file__).resolve().parent.parent

# A formula pass (about 14 s on a 2-core 2.1 GHz VM) does not fit twice in
# the run budget; two passes still give every run a median of two.
MIN_PASSES = 2


def import_cli():
    """machinpi.cli from this checkout's src/, never an installed copy."""
    src = (ROOT / "src").resolve()
    sys.path.insert(0, str(src))
    import machinpi.cli as cli

    if not Path(cli.__file__).resolve().is_relative_to(src):
        raise ImportError(f"machinpi imported from {cli.__file__}, not {src}")
    return cli


def call(main, argv, recorder=None, request_id=None, pacer=None):
    """Run one CLI command in-process with stdout and stderr captured.
    Returns (exit code, or None if it raised; stdout; stderr; wall
    seconds; paced seconds, or None without a pacer)."""
    def invoke():
        try:
            return main(list(argv))
        except SystemExit as exc:  # argparse rejects usage this way
            return exc.code if isinstance(exc.code, int) else 2
        except Exception:  # noqa: BLE001 - a crash is a failed request
            traceback.print_exc()
            return None

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if recorder is not None:
            recorder.request = request_id
            span = recorder.open("cli", command=argv[0])
        if pacer is not None:
            rc, elapsed, paced = pacer.timed(invoke)
        else:
            start = time.perf_counter()
            rc = invoke()
            elapsed, paced = time.perf_counter() - start, None
        if recorder is not None:
            recorder.close(span)
    return rc, out.getvalue(), err.getvalue(), elapsed, paced


def judge(request, rc, stdout, facts, pi_texts) -> list[str]:
    """Problems with one request's outcome; empty when it is correct."""
    if rc is None:
        return ["raised an exception"]
    kind = request.check[0]
    try:
        if kind == "generate":
            _, fact, path = request.check
            return oracles.check_generate(rc, stdout, path, facts["records"][fact])
        if kind == "verify":
            return oracles.check_verify(rc, stdout, request.check[1])
        if kind == "pi":
            return oracles.check_compute_pi(rc, stdout, pi_texts[request.check[1]])
        if kind == "bench":
            return oracles.check_bench(rc, request.check[1], facts["rates"])
        if kind == "exit":
            return [] if rc == request.check[1] else [f"exited {rc}"]
    except Exception as exc:  # noqa: BLE001 - a check must not end the run
        return [f"check raised {exc!r}"]
    raise ValueError(f"unknown check {kind!r}")


class PassRunner:
    def __init__(self, cli_main, plan, facts, pi_texts):
        self._main = cli_main
        self._plan = plan
        self._facts = facts
        self._pi_texts = pi_texts
        self._next_request = 0

    def run(self, budget: float, recorder=None, pacer=None) -> list[dict]:
        """At least MIN_PASSES passes, then more until the next one would
        end past `budget` seconds."""
        passes = []
        start = time.perf_counter()
        while True:
            passes.append(self._one_pass(recorder, pacer))
            elapsed = time.perf_counter() - start
            typical = statistics.median(p["wall_s"] for p in passes)
            if len(passes) >= MIN_PASSES and elapsed + typical > budget:
                return passes

    def _one_pass(self, recorder, pacer) -> dict:
        order = self._plan.next_order()
        first_span = len(recorder.spans) if recorder is not None else 0
        outcomes = []
        for request in order:
            request_id = self._next_request
            self._next_request += 1
            rc, stdout, _, elapsed, paced = call(
                self._main, request.argv, recorder, request_id, pacer)
            outcomes.append((request, request_id, rc, stdout, elapsed, paced))

        commands: dict[str, float] = {}
        problems = []
        failed = 0
        for request, _, rc, stdout, elapsed, paced in outcomes:
            commands[request.command] = commands.get(request.command, 0.0) + (
                elapsed if paced is None else paced)
            found = judge(request, rc, stdout, self._facts, self._pi_texts)
            failed += bool(found)
            problems += [f"{request.name}: {problem}" for problem in found]
        record = {
            "order": [request.name for request in order],
            "wall_s": sum(outcome[4] for outcome in outcomes),
            "commands": commands,
            "attempted": len(order),
            "failed": failed,
            "problems": problems,
        }
        if pacer is not None:
            record["paced_s"] = sum(outcome[5] for outcome in outcomes)
        if recorder is not None:
            compute_pi = {rid for request, rid, *_ in outcomes
                          if request.command == "compute-pi"}
            record["layers"] = spans.pass_layer_metrics(
                recorder.spans[first_span:], compute_pi)
        return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.worker")
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    work_dir = Path(args.dir).resolve()
    work_dir.mkdir(parents=True, exist_ok=True)
    os.environ["MACHINPI_DIR"] = str(work_dir)
    out_path = Path(args.out)

    def set_up():
        cli = import_cli()
        setup = [(request, call(cli.main, request.argv))
                 for request in workloads.setup_requests(args.workload, work_dir)]
        if args.workload == "formula":
            workloads.perturb_negative_record(
                work_dir / workloads.NEGATIVE_RECORD, args.seed)
        return cli, setup

    pacer = pace.Pacer()
    with pacer:
        (cli, setup), setup_wall, setup_paced = pacer.timed(set_up)
    result = {"setup_s": setup_paced, "setup_wall_s": setup_wall}
    if args.setup_only:
        out_path.write_text(json.dumps(result) + "\n")
        return 0

    facts = oracles.load_frozen()
    targets = workloads.pi_digit_targets(args.workload)
    reference = oracles.pi_truncated(max(targets)) if targets else ""
    pi_texts = {digits: reference[: 2 + digits] for digits in targets}
    result["setup_attempted"] = len(setup)
    result["setup_failed"] = 0
    result["setup_problems"] = []
    for request, (rc, stdout, *_) in setup:
        found = judge(request, rc, stdout, facts, pi_texts)
        result["setup_failed"] += bool(found)
        result["setup_problems"] += [f"{request.name}: {problem}" for problem in found]

    runner = PassRunner(cli.main, workloads.PassPlan(args.workload, work_dir, args.seed),
                        facts, pi_texts)
    budget = args.seconds / 2 if args.trace else args.seconds
    with pacer:
        result["passes"] = runner.run(budget, pacer=pacer)
    result["probe_median_s"] = statistics.median(pacer.samples)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if args.trace:
        recorder = spans.SpanRecorder()
        uninstall = spans.install(recorder)
        try:
            result["traced_passes"] = runner.run(budget, recorder)
        finally:
            uninstall()
        result["untraced_targets"] = recorder.missing
        result["slopes"] = {
            name: spans.size_ladder_slope(recorder.spans, name, workloads.FORMULA_DEPTHS)
            for name in ("machin.verify_formula", "machin.solve_u2")
        }
        (out_path.parent / "spans.json").write_text(
            json.dumps(recorder.spans, default=str) + "\n")

    out_path.write_text(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
