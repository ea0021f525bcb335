"""Span recorder, self-time arithmetic and the patching of machinpi."""

from __future__ import annotations

import sys

import pytest

from perfbench import spans, worker


def _span(id_, name, parent, start, end, request=0, **attrs):
    return {"id": id_, "name": name, "parent": parent, "request": request,
            "start": start, "end": end, "attrs": attrs}


def test_self_time_subtracts_direct_children_only():
    tree = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "records.check_record", 0, 1.0, 4.0),
        _span(2, "machin.verify_formula", 1, 2.0, 3.0),
        _span(3, "records.load_record", 0, 5.0, 6.0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 6.0, 1: 2.0, 2: 1.0, 3: 1.0})


def test_self_time_counts_overlapping_children_once():
    tree = [
        _span(0, "cli", None, 0.0, 10.0),
        _span(1, "a", 0, 2.0, 6.0),
        _span(2, "b", 0, 4.0, 12.0),  # overlaps a and overruns the parent
    ]
    assert spans.self_times(tree)[0] == pytest.approx(2.0)


def test_recorder_links_parents_and_requests():
    ticks = iter(range(100))
    recorder = spans.SpanRecorder(clock=lambda: float(next(ticks)))
    recorder.request = 7
    outer = recorder.open("cli")
    inner = recorder.open("machin.solve_u2", k=3)
    recorder.close(inner)
    recorder.close(outer)
    assert inner["parent"] == outer["id"]
    assert outer["parent"] is None
    assert {s["request"] for s in recorder.spans} == {7}
    assert spans.self_times(recorder.spans) == {0: 2.0, 1: 1.0}


def test_pass_metrics_from_synthetic_spans():
    tree = [
        _span(0, "cli", None, 0.0, 10.0, request=1),
        _span(1, "series.pi_from_formula", 0, 1.0, 9.0, request=1, terms=5),
        _span(2, "series.arctan_first", 1, 2.0, 5.0, request=1, terms=5),
        _span(3, "series.arctan_second", 1, 5.0, 6.0, request=1, terms=5),
        _span(4, "series.pi_from_formula", 0, 9.0, 9.5, request=1, terms=8),
    ]
    metrics = spans.pass_layer_metrics(tree, compute_pi_requests={1})
    assert metrics["series.pi_from_formula.calls"] == 2
    assert metrics["series.pi_from_formula.self_s"] == pytest.approx(4.0 + 0.5)
    assert metrics["series.arctan_first.s"] == pytest.approx(3.0)
    assert metrics["series.terms"] == 10  # arctangent terms, not formula passes
    assert metrics["series.useful_ratio"] == pytest.approx(0.5)
    assert metrics["cli.self_s"] == pytest.approx(1.5)


def test_size_ladder_slope_recovers_a_power_law():
    tree = [
        _span(i, "machin.verify_formula", None, 0.0, (bits / 1000.0) ** 2, k=k, u2_bits=bits)
        for i, (k, bits) in enumerate([(13, 1000), (14, 2000), (15, 4000)])
    ]
    assert spans.size_ladder_slope(tree, "machin.verify_formula", (13, 14, 15)) == (
        pytest.approx(2.0))
    assert spans.size_ladder_slope(tree, "machin.verify_formula", (2, 3)) == 0.0


@pytest.fixture
def cli():
    return worker.import_cli()


def test_install_patches_every_binding_and_uninstall_restores(cli):
    machin = sys.modules["machinpi.machin"]
    original = machin.verify_formula
    uninstall = spans.install(spans.SpanRecorder())
    try:
        for name in ("machinpi.machin", "machinpi.cli", "machinpi.records",
                     "machinpi.series", "machinpi"):
            assert sys.modules[name].verify_formula is not original
    finally:
        uninstall()
    for name in ("machinpi.machin", "machinpi.cli", "machinpi.records",
                 "machinpi.series", "machinpi"):
        assert sys.modules[name].verify_formula is original


def test_traced_commands_produce_layer_spans(cli, tmp_path, monkeypatch):
    monkeypatch.setenv("MACHINPI_DIR", str(tmp_path))
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    try:
        rc, *_ = worker.call(cli.main, ("generate", "3"), recorder, 0)
        assert rc == 0
        rc, *_ = worker.call(cli.main, ("compute-pi", "--formula",
                                         str(tmp_path / "formula_k3.json"),
                                         "--digits", "40"), recorder, 1)
        assert rc == 0
    finally:
        uninstall()
    by_id = {s["id"]: s for s in recorder.spans}
    verify = next(s for s in recorder.spans if s["name"] == "machin.verify_formula")
    assert by_id[verify["parent"]]["name"] == "cli"
    names = {s["name"] for s in recorder.spans if s["request"] == 1}
    assert {"records.load_record", "series.pi_from_formula",
            "series.arctan_first", "series.arctan_second"} <= names
    metrics = spans.pass_layer_metrics(recorder.spans, compute_pi_requests={1})
    assert metrics["machin.verify_formula.calls"] == 1
    assert metrics["series.useful_ratio"] == 1.0
    assert metrics["machin.u2_bits"] == (239).bit_length() + 1


def test_absent_target_is_listed_not_fatal(cli, monkeypatch):
    series = sys.modules["machinpi.series"]
    monkeypatch.delattr(series, "arctan_conjugate")
    recorder = spans.SpanRecorder()
    uninstall = spans.install(recorder)
    uninstall()
    assert recorder.missing == ["machinpi.series.arctan_conjugate"]
