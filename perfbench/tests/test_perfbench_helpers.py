"""Tests of the benchmark's own helpers: spans, percentiles, failure counting, wrappers."""

import json
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

from perfbench import layers, run
from perfbench.ledger import Ledger
from perfbench.stats import loglog_slope
from perfbench.tracing import Target, Tracer, self_times, summarize, wrapped_attributes

ROOT = Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def _fake_module(clock):
    mod = types.ModuleType("fake")

    def leaf(dt):
        clock.now += dt
        return dt

    def middle():
        clock.now += 1.0  # [1, 2] own work
        mod.leaf(1.0)  # child [2, 3]
        clock.now += 1.0  # own work
        return "m"

    mod.leaf = leaf
    mod.middle = middle
    return mod


def test_self_time_over_nested_spans():
    clock = FakeClock()
    mod = _fake_module(clock)
    tracer = Tracer(clock=clock)
    tracer.install([mod], [Target("fake", "leaf", "fake.leaf"), Target("fake", "middle", "fake.middle")])
    try:
        with tracer.span("bench.unit"):
            clock.now += 1.0
            mod.middle()
            mod.leaf(2.0)
            clock.now += 0.5
    finally:
        tracer.remove()
    names = [s[0] for s in tracer.spans]
    assert names == ["bench.unit", "fake.middle", "fake.leaf", "fake.leaf"]
    selfs = self_times(tracer.spans)
    assert selfs == pytest.approx([1.5, 2.0, 1.0, 2.0])
    # self times partition the outermost span
    assert sum(selfs) == pytest.approx(tracer.spans[0][2] - tracer.spans[0][1])
    stats = summarize(tracer.spans)
    assert stats["fake.leaf"].calls == 2
    assert stats["fake.leaf"].self_s == pytest.approx(3.0)
    wall, program, own = layers.coverage(tracer.spans, 0)
    assert (wall, program, own) == pytest.approx((6.5, 5.0, 1.5))


def test_self_time_clips_overlapping_children():
    spans = [["p", 0.0, 10.0, -1, None], ["a", 1.0, 5.0, 0, None], ["b", 4.0, 12.0, 0, None]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_loglog_slope():
    assert loglog_slope([1, 2, 4], [3, 24, 192]) == pytest.approx(3.0)


def test_failure_counting():
    led = Ledger(last_span=lambda exc=None: "engine.build_system")
    with led.op("fit:a") as op:
        op.result = 1
    with led.op("fit:b"):
        raise ValueError("not positive definite")
    assert (led.attempted, led.failed) == (2, 1)
    f = led.failures[0]
    assert f["op"] == "fit:b" and f["type"] == "ValueError"
    assert f["last_span"] == "engine.build_system"
    assert any("not positive definite" in line for line in f["traceback"])
    assert led.correct
    # two failed checks on one operation fail it once
    led.check(op, "bound finite", False, {"bound": None})
    led.check(op, "bound increased", False, {})
    led.check(op, "prediction finite", True, {})
    assert (led.attempted, led.failed) == (2, 2)
    assert not led.correct
    assert [f["type"] for f in led.failures] == ["ValueError", "CheckFailed", "CheckFailed"]


def test_failed_span_is_innermost():
    clock = FakeClock()
    mod = types.ModuleType("fake")

    def inner():
        raise RuntimeError("boom")

    def outer():
        mod.inner()

    mod.inner, mod.outer = inner, outer
    tracer = Tracer(clock=clock)
    tracer.install([mod], [Target("fake", "inner", "fake.inner"), Target("fake", "outer", "fake.outer")])
    try:
        with pytest.raises(RuntimeError) as info:
            mod.outer()
    finally:
        tracer.remove()
    assert tracer.last_span(info.value) == "fake.inner"
    assert summarize(tracer.spans)["fake.outer"].failed == 1


def test_wrappers_reach_callers_and_are_removed():
    import wsmgp
    from wsmgp import bounds, checks, gradients

    modules = [m for n, m in sorted(sys.modules.items()) if n == "wsmgp" or n.startswith("wsmgp.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    ds, cfg, hp, state = checks.random_instance(0, n=8, Q=3)
    tracer = Tracer()
    tracer.install(modules, layers.TARGETS)
    try:
        assert wrapped_attributes(modules)
        gradients.elbo_cvb_with_grad(ds, cfg, hp, state)
    finally:
        tracer.remove()
    names = {s[0] for s in tracer.spans}
    # reached through gradients' own bindings of names imported from bounds
    assert {"bounds.build_cvb_system", "bounds.vterm_rows", "engine.build_system",
            "gradients._chain_convolved", "kernels.kff_matrix_grads"} <= names
    assert wrapped_attributes(modules) == []
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items() if callable(v)}
    assert all(after[key] is fn for key, fn in before.items())
    n = len(tracer.spans)
    bounds.elbo_cvb(ds, cfg, hp, state)
    wsmgp.elbo_cvb(ds, cfg, hp, state)
    assert len(tracer.spans) == n


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == layers.spec()


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_cell", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
