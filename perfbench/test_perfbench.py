"""Self-tests of the benchmark harness.

    PYTHONPATH=src python3 -m pytest -q perfbench

Every workload runs once at a tiny size with its checks passing, every
metric named in BENCHMARK.json is produced with its unit, the self-time
arithmetic is checked on synthetic spans, and the NumPy shim is checked on
stand-in modules.
"""

import argparse
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

run.apply_numpy_shim(np)
pp = run.import_package()

import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_shim_leaves_existing_trapz_alone():
    old, new = object(), object()
    numpy_like = SimpleNamespace(trapz=old, trapezoid=new)
    assert run.apply_numpy_shim(numpy_like) is False
    assert numpy_like.trapz is old


def test_shim_fills_missing_trapz():
    new = object()
    numpy_like = SimpleNamespace(trapezoid=new)
    assert run.apply_numpy_shim(numpy_like) is True
    assert numpy_like.trapz is new


def _span(ident, name, parent, start, end):
    return tracing.Span(ident, name, parent, start, end)


def test_covered_length_merges_and_clips():
    assert tracing.covered_length([(1, 4), (3, 6), (8, 12)], 0, 10) == 7
    assert tracing.covered_length([], 0, 10) == 0


def test_self_times_add_up_to_the_window():
    spans = [
        _span(0, "learn.generate_dataset", None, 1.0, 11.0),
        _span(1, "sampler.cat", 0, 2.0, 5.0),
        _span(2, "dynamics.run_ensemble", 0, 5.0, 9.0),
        _span(3, "observables.feature_vector", 2, 6.0, 7.0),
        _span(4, "oracle.wigner_grid", None, 12.0, 13.5),
        _span(5, "oracle.wigner_grid", None, 20.0, 21.0),   # outside the window
    ]
    per_layer, unattributed = tracing.self_times(spans, [(0.0, 14.0)])
    assert per_layer["learn"] == pytest.approx(3.0)
    assert per_layer["sampler"] == pytest.approx(3.0)
    assert per_layer["dynamics"] == pytest.approx(3.0)
    assert per_layer["observables"] == pytest.approx(1.0)
    assert per_layer["oracle"] == pytest.approx(1.5)
    assert per_layer["model"] == 0.0
    assert unattributed == pytest.approx(2.5)
    assert sum(per_layer.values()) + unattributed == pytest.approx(14.0)


def _assert_metrics_match(values, declared):
    assert set(values) == {m["name"] for m in declared}
    for metric in declared:
        value, unit = values[metric["name"]]
        assert unit == metric["unit"], metric["name"]
        assert np.isfinite(value), metric["name"]


@pytest.fixture(scope="module", params=sorted(workloads.WORKLOADS))
def tiny(request):
    workload = workloads.build(request.param, tiny=True)
    workload.warm_up()
    return workload


def test_tiny_workload_passes_its_checks(tiny):
    outcome = tiny.iterate((3, 0))
    failed = [name for name, ok in outcome.checks if not ok]
    assert outcome.checks and not failed
    assert outcome.traj_steps > 0 and outcome.traj_s > 0
    assert outcome.records > 0 and outcome.records_s > 0


def test_end_to_end_metrics_have_their_units(tiny):
    args = argparse.Namespace(seconds=0.0, seed=3)
    tally = run.Tally()
    values, _ = run.end_to_end(args, tiny, tally, [0.5, 0.4, 0.6])
    assert tally.failed == 0
    _assert_metrics_match(values, SPEC["end_to_end"])
    assert all(value > 0 for value, _ in values.values())


def test_traced_run_reports_every_layer_metric(tiny, monkeypatch):
    monkeypatch.setattr(run, "_write_spans", lambda args, spans: None)
    args = argparse.Namespace(seconds=0.0, seed=3, workload=tiny.name)
    tracer = tracing.Tracer()
    tally = run.Tally()
    values, info = run.traced(args, tiny, tally, tracer, [], pp)
    assert tally.failed == 0
    _assert_metrics_match(values, SPEC["per_layer"])
    # patches are undone after the traced iteration
    assert not hasattr(pp.dynamics.run_ensemble, "__wrapped__")
    assert not hasattr(pp.learn.run_ensemble, "__wrapped__")
    wall = values["trace.wall_s"][0]
    attributed = sum(values[f"self_s.{layer}"][0] for layer in tracing.LAYERS)
    assert attributed + values["self_s.unattributed"][0] == pytest.approx(wall)
    assert values["dynamics.run_ensemble.calls"][0] > 0
    assert sum(info["self_time_shares"].values()) == pytest.approx(1.0)
