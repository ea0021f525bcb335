"""Oracles: an edited digit string or record is a failure, never a crash."""

from __future__ import annotations

import hashlib
import json
import sys

from perfbench import oracles, worker, workloads

PI_50 = "3.14159265358979323846264338327950288419716939937510"


def test_pi_oracle_matches_known_digits():
    assert oracles.pi_truncated(50) == PI_50
    assert oracles.pi_truncated(1) == "3.1"


def test_pi_oracle_works_under_the_default_str_digit_cap():
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        text = oracles.pi_truncated(5000)
        assert sys.get_int_max_str_digits() == 4300
    finally:
        sys.set_int_max_str_digits(previous)
    assert len(text) == 5002 and text.startswith(PI_50)


def test_edited_pi_digit_is_one_failure():
    expected = oracles.pi_truncated(100)
    edited = expected[:60] + str((int(expected[60]) + 1) % 10) + expected[61:]
    problems = oracles.check_compute_pi(0, edited + "\n", expected)
    assert len(problems) == 1 and "character 60" in problems[0]
    assert oracles.check_compute_pi(0, expected + "\n", expected) == []
    assert oracles.check_compute_pi(5, "", expected)


def _record(tmp_path, head="-239.00000000000000000000", sidecar=None):
    num = {"value": "-239"}
    if sidecar is not None:
        (tmp_path / "r.u2num.txt").write_text(sidecar)
        num = {"file": "r.u2num.txt",
               "sha256": hashlib.sha256(sidecar.encode()).hexdigest()}
    payload = {
        "u1": {"num": "5", "den": "1"},
        "u2": {"num": num, "den": {"value": "1"}},
        "u2_digit_counts": {"num_digits": 3, "den_digits": 1},
        "u2_decimal_head": head,
        "verified": True,
    }
    path = tmp_path / "r.json"
    path.write_text(json.dumps(payload))
    return path


FACTS = {"u1": ["5", "1"], "digit_counts": [3, 1],
         "head": "-239.00000000000000000000", "verified": True,
         "u2num": {"value": "-239"}, "u2den": {"value": "1"}}


def test_record_checks_catch_edits(tmp_path):
    assert oracles.check_record(_record(tmp_path), FACTS) == []
    edited = _record(tmp_path, head="-238.00000000000000000000")
    assert oracles.check_record(edited, FACTS) == [
        "head: expected '-239.00000000000000000000', "
        "got '-238.00000000000000000000'"]


def test_sidecar_edit_is_caught(tmp_path):
    body = "-239\n"
    facts = dict(FACTS, u2num={"sha256": hashlib.sha256(body.encode()).hexdigest()})
    path = _record(tmp_path, sidecar=body)
    assert oracles.check_record(path, facts) == []
    (tmp_path / "r.u2num.txt").write_text("-238\n")
    assert oracles.check_record(path, facts) == ["u2 num sidecar content differs"]
    (tmp_path / "r.u2num.txt").unlink()
    assert oracles.check_record(path, facts)  # reported, not raised


def test_missing_or_garbled_record_is_a_failure(tmp_path):
    assert oracles.check_record(tmp_path / "absent.json", FACTS)
    (tmp_path / "bad.json").write_text("{not json")
    assert oracles.check_record(tmp_path / "bad.json", FACTS)
    (tmp_path / "partial.json").write_text("{}")
    assert oracles.check_record(tmp_path / "partial.json", FACTS)


def test_judge_counts_crashes_and_wrong_exits(tmp_path):
    facts = {"records": {"k3": FACTS}, "rates": {}}
    generate = workloads.Request("generate k=3", ("generate", "3"),
                                 ("generate", "k3", tmp_path / "absent.json"))
    assert worker.judge(generate, None, "", facts, {}) == ["raised an exception"]
    assert worker.judge(generate, 0, "", facts, {})
    negative = workloads.Request("verify negative", ("verify", "x"), ("verify", 4))
    assert worker.judge(negative, 0, "", facts, {}) == ["verify exited 0, expected 4"]
    assert worker.judge(negative, 4, "", facts, {}) == []


def test_frozen_bench_samples_detect_a_changed_sample(tmp_path):
    frozen = oracles.load_frozen()["rates"]
    reports = [{"k": int(k), "u1": {"num": v["u1"][0], "den": v["u1"][1]},
                "samples": [list(s) for s in v["samples"]]}
               for k, v in frozen.items()]
    path = tmp_path / "bench_report.json"
    path.write_text(json.dumps({"reports": reports}))
    assert oracles.check_bench(0, path, frozen) == []
    reports[1]["samples"][10][1] += 1
    path.write_text(json.dumps({"reports": reports}))
    assert oracles.check_bench(0, path, frozen) == [
        f"bench samples or u1 differ at k={reports[1]['k']}"]
