"""Smoke runs of the two timing ladders under scripts/, on the smallest
ladders they take, each in a subprocess as it is run by hand: their JSON
rows must describe what compute-pi itself reports for the same request.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import machinpi
from machinpi import cli

from test_golden_outputs import RECORD_FILES

SRC = Path(machinpi.__file__).resolve().parents[1]

# chain_ladder's sources: the generate arguments of a record, or None
# for the tower at depth 40.
CHAIN_SOURCES = {"k3": ("3",), "k5": ("5",), "k10floor": ("10", "--round", "floor"),
                 "k40": None}


def ladder(name: str, work: Path, *argv: str) -> dict:
    out = work / f"{name}.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    subprocess.run([sys.executable, str(SRC.parent / "scripts" / name), *argv,
                    "--json", str(out)], env=env, check=True, capture_output=True)
    return json.loads(out.read_text())


def run(*argv: str) -> tuple[str, str]:
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        assert cli.main(list(argv)) == 0
    return out.getvalue(), err.getvalue()


def generate(work: Path, name: str, *argv: str) -> str:
    path = work / f"{name}.json"
    if not path.exists():
        run("generate", *argv, "--out", str(path))
    return str(path)


def test_chain_ladder_links_sum_to_compute_pi_terms(tmp_path):
    report = ladder("chain_ladder.py", tmp_path, "--digits", "100,200", "--repeat", "1")
    assert [(r["source"], r["digits"]) for r in report["requests"]] == [
        (source, digits) for source in CHAIN_SOURCES for digits in (100, 200)]
    for request in report["requests"]:
        argv = CHAIN_SOURCES[request["source"]]
        source = (["--formula", generate(tmp_path, request["source"], *argv)] if argv
                  else ["--k", "40"])
        _, err = run("compute-pi", *source, "--digits", str(request["digits"]))
        counts = err.removeprefix("terms used: ").partition(";")[0].split("+")
        evaluators = [link["evaluator"] for link in request["links"]]
        # One conjugate first link per arctangent: two for a record.
        assert evaluators[0] == "conjugate"
        assert evaluators.count("conjugate") == len(counts) == (2 if argv else 1)
        assert evaluators.count("gregory") == len(evaluators) - len(counts)
        assert sum(link["terms"] for link in request["links"]) == sum(map(int, counts))


def test_record_ladder_rows_match_compute_pi(tmp_path):
    report = ladder("record_ladder.py", tmp_path, "--depths", "3-4", "--repeat", "1")
    assert [row["k"] for row in report["rows"]] == [3, 4]
    assert report["rows"][0]["files_sha256"] == {"formula_k3.json": RECORD_FILES["k3.json"]}
    for row in report["rows"]:
        name = f"formula_k{row['k']}.json"
        path = generate(tmp_path, name.removesuffix(".json"), str(row["k"]))
        assert row["files_sha256"] == {
            name: hashlib.sha256(Path(path).read_bytes()).hexdigest()}
        out, err = run("compute-pi", "--formula", path, "--digits", "1000")
        assert row["compute_pi_stdout_sha256"] == hashlib.sha256(out.encode()).hexdigest()
        assert row["compute_pi_stderr"] == err
