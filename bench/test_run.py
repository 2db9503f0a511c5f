"""Tests of the benchmark's tracer and of its metric sets.

    python3 -m pytest bench/test_run.py -q
"""
import json
import time
import types
from pathlib import Path

import pytest

import calibrate
import run
from tracer import Tracer

DECLARED = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def test_tracer_splits_self_time_between_nested_spans(tmp_path):
    mod = types.SimpleNamespace()
    mod.inner = lambda: time.sleep(0.02)

    def outer():
        time.sleep(0.01)
        mod.inner()
        mod.inner()

    mod.outer = outer
    tracer = Tracer()
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "inner", "m.inner", after=lambda c, r: c.update(n=c.get("n", 0) + 1))
    assert not tracer.wrap(mod, "absent", "m.absent")
    mod.outer()
    summary = tracer.summary()
    assert summary["m.inner"]["calls"] == 2 and tracer.counters == {"n": 2}
    assert summary["m.outer"]["total_s"] == pytest.approx(
        summary["m.outer"]["self_s"] + summary["m.inner"]["total_s"], abs=1e-12)
    assert 0.009 <= summary["m.outer"]["self_s"] < 0.03
    tracer.save(tmp_path / "spans.npz")
    assert (tmp_path / "spans.npz").stat().st_size > 0


def test_untraced_run_reports_every_declared_end_to_end_metric():
    untraced = [{"run_s": 2.0, "solver_s": 1.5, "peak_rss_mb": 80.0}]
    metrics = run.end_to_end_metrics(untraced, [0.5, 0.6, 0.7], 3000)
    assert [m["name"] for m in DECLARED["end_to_end"]] == list(metrics)
    assert {m["name"]: m["unit"] for m in DECLARED["end_to_end"]} == {
        k: unit for k, (_, unit) in metrics.items()}
    assert metrics["steps_per_s"][0] == 2000.0 and metrics["setup_s"][0] == 0.6


def test_pacer_takes_out_its_own_time_and_scales_each_block(monkeypatch):
    ref = calibrate.REFERENCE_UNIT_S
    monkeypatch.setattr(calibrate, "BLOCK", 2)
    monkeypatch.setattr(calibrate.time, "perf_counter", lambda: 10.0)
    pacer = calibrate.Pacer()
    pacer.units, pacer.ticks = [ref], [(0.0, 0.1)]
    since = (1, 1.0)
    # four ticks of 0.1 s: two at the reference speed, then two at half of it
    pacer.units += [ref, ref, 2 * ref, 2 * ref]
    pacer.ticks += [(2.0, 2.1), (4.1, 4.2), (6.2, 6.3), (8.3, 8.4)]
    wall, scaled = pacer.scaled(since)
    assert wall == pytest.approx(8.6)
    assert scaled == pytest.approx((1.0 + 2.0) + (2.0 + 2.0 + 1.6) / 2)


def test_pacer_interleaves_units_with_the_work():
    pacer = calibrate.Pacer()
    pacer.start()
    since = pacer.mark()
    deadline = time.perf_counter() + 0.3
    while time.perf_counter() < deadline:
        sum(range(1000))
    wall, scaled = pacer.scaled(since)
    pacer.stop()
    assert len(pacer.units) >= 4 and 0.0 < pacer.spent < 0.3
    assert wall == pytest.approx(0.3 - pacer.spent + pacer.units[0], abs=0.05)
    assert scaled > 0.0


@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_traced_run_reports_every_declared_per_layer_metric(workload):
    traced = [{"wall_run_s": 2.2, "layers": {}, "counters": {}}]
    untraced = [{"wall_run_s": 2.0, "wall_solver_s": 1.5}]
    metrics = run.layer_metrics(workload, run.WORKLOADS[workload][1], traced, untraced,
                                12.0, 100)
    assert {m["name"]: m["unit"] for m in DECLARED["per_layer"]} == {
        k: unit for k, (_, unit) in metrics.items()}
