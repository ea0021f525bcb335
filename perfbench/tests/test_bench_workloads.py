"""Seeded request order and the negative-control perturbation."""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from perfbench import workloads


def _orders(workload, seed, passes=6):
    plan = workloads.PassPlan(workload, Path("w"), seed)
    return [[request.name for request in plan.next_order()] for _ in range(passes)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_same_request_order(workload):
    assert _orders(workload, 11) == _orders(workload, 11)


def test_seed_changes_the_order_and_keeps_units_intact():
    orders = {seed: _orders("formula", seed) for seed in range(5)}
    assert len({tuple(map(tuple, o)) for o in orders.values()}) > 1
    for passes in orders.values():
        for order in passes:
            assert len(order) == 7
            for k in workloads.FORMULA_DEPTHS:
                assert order.index(f"generate k={k}") + 1 == order.index(f"verify k={k}")


def _negative_record(tmp_path: Path, num: int, den: int) -> Path:
    body = f"{num}\n"
    (tmp_path / "n.u2num.txt").write_text(body)
    payload = {"u2": {
        "num": {"file": "n.u2num.txt",
                "sha256": hashlib.sha256(body.encode()).hexdigest()},
        "den": {"value": str(den)},
    }}
    path = tmp_path / "n.json"
    path.write_text(json.dumps(payload))
    return path


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_perturbation_keeps_counts_and_lowest_terms(tmp_path, seed):
    num, den = -35111790473214580986871, 10000000000000000000007
    path = _negative_record(tmp_path, num, den)
    position = workloads.perturb_negative_record(path, seed)
    body = (tmp_path / "n.u2num.txt").read_text()
    new = int(body)
    payload = json.loads(path.read_text())
    assert payload["u2"]["num"]["sha256"] == hashlib.sha256(body.encode()).hexdigest()
    assert new != num and new < 0
    assert len(str(new)) == len(str(num))
    assert math.gcd(new, den) == 1
    digits, new_digits = str(-num), str(-new)
    assert [i for i in range(len(digits)) if digits[i] != new_digits[i]] == [position]


def test_perturbation_position_follows_the_seed(tmp_path):
    num, den = 123456789012345678901234567, 1000003
    positions = []
    for run in ("a", "b"):
        (tmp_path / run).mkdir()
        positions.append(workloads.perturb_negative_record(
            _negative_record(tmp_path / run, num, den), seed=5))
    assert positions[0] == positions[1]
