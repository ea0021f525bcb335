"""Paced timing: probe time is taken out and the rest scaled to nominal."""

from __future__ import annotations

import time

import pytest

from perfbench import pace


def test_paced_scales_wall_by_nominal_over_mean_probe():
    slow = [2 * pace.NOMINAL_PROBE_S, 2 * pace.NOMINAL_PROBE_S]
    assert pace.paced(3.0, slow) == pytest.approx(1.5)
    assert pace.paced(3.0, [pace.NOMINAL_PROBE_S]) == pytest.approx(3.0)


def test_timed_subtracts_probes_inside_and_uses_those_around(monkeypatch):
    monkeypatch.setattr(pace, "probe", lambda: 0)
    monkeypatch.setattr(pace, "BRACKET", 1)
    ticks = iter([0.0, 2.0,      # probe before
                  2.0,           # interval starts
                  5.0, 7.0,      # a timer probe inside
                  12.0,          # interval ends
                  12.0, 14.0])   # probe after
    pacer = pace.Pacer(clock=lambda: next(ticks))

    def work():
        pacer.sample()
        return "done"

    result, wall, paced = pacer.timed(work)
    assert result == "done"
    assert wall == pytest.approx(8.0)
    assert paced == pytest.approx(8.0 * pace.NOMINAL_PROBE_S / 2.0)
    assert pacer.samples == [2.0, 2.0, 2.0]


def test_timer_samples_while_active_and_stops_after():
    pacer = pace.Pacer(period=0.02)
    with pacer:
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            pass
    taken = len(pacer.samples)
    assert taken >= 2
    time.sleep(0.06)
    assert len(pacer.samples) == taken
