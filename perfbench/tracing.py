"""In-memory spans around calls into pplattice's public functions.

A Tracer replaces a module attribute -- the name a caller resolves at call
time, such as ``pplattice.learn.run_ensemble`` -- with a wrapper that records
one span per call: name, parent span, start and end (wall clock), CPU time,
and a few attributes read from the call's arguments and result.  Spans stay
in memory; the runner writes them out when it exits.

A function that a later refactor removes or renames is simply not patched,
so its span reports 0 calls instead of failing the run.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import statistics
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("model", "sampler", "dynamics", "observables", "learn", "oracle")
TRACED_MODES = (1, 2, 4, 5)   # lattice sizes the workloads integrate
DENSE_ORACLE_LIMIT = 50       # default for pplattice.oracle.DENSE_SUPEROP_LIMIT

# Units of the per-layer metrics that are not in seconds.
UNITS = {
    "sampler.cat.samples_per_s": "1/s",
    "sampler.cat.peak_alloc_mb": "MB",
    "sampler.calls": "count",
    "dynamics.run_ensemble.calls": "count",
    **{f"dynamics.traj_steps_per_s.n{n}": "1/s" for n in TRACED_MODES},
    "dynamics.diverged_frac": "ratio",
    "dynamics.cpu_per_wall": "ratio",
    "learn.train_classifier.epochs_per_s": "1/s",
    "learn.train_regressor.epochs_per_s": "1/s",
    "oracle.intervals": "count",
    "oracle.evolve_master.peak_alloc_mb": "MB",
    "trace.overhead_frac": "ratio",
}


def unit_of(name: str) -> str:
    return UNITS.get(name, "s")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    start: float
    end: float = 0.0
    cpu: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans for the functions it patches until restore() is called."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._ids = itertools.count()
        self._patches: list[tuple[object, str, object]] = []

    def patch(self, module, attr: str, name: str, describe=None,
              track_alloc: bool = False):
        original = getattr(module, attr, None)
        if original is None:
            return
        setattr(module, attr, self._wrap(original, name, describe, track_alloc))
        self._patches.append((module, attr, original))

    def restore(self):
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def _wrap(self, fn, name, describe, track_alloc):
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1].id if self._stack else None
            span = Span(next(self._ids), name, parent, time.perf_counter())
            self._stack.append(span)
            # tracemalloc only sees allocations made after it starts, so the
            # peak is what this call allocated on top of what already existed
            own_alloc = track_alloc and not tracemalloc.is_tracing()
            if own_alloc:
                tracemalloc.start()
            cpu0 = time.process_time()
            outcome = None
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                span.attrs["error"] = type(exc).__name__
                raise
            finally:
                span.cpu = time.process_time() - cpu0
                span.end = time.perf_counter()
                if own_alloc:
                    span.attrs["peak_alloc_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
                    tracemalloc.stop()
                self._stack.pop()
                if describe is not None:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    span.attrs.update(describe(bound.arguments, outcome))
                self.spans.append(span)

        return traced


# ---------------------------------------------------------------------------
# what each traced call reports


def _describe_ensemble(call, result):
    trajectories = len(call["source_samples"])
    if isinstance(result, Exception):
        diverged = trajectories if type(result).__name__ == "DivergenceError" else 0
    else:
        diverged = round(result.divergence_fraction * trajectories)
    return {"modes": call["spec"].n_modes, "trajectories": trajectories,
            "steps": call["schedule"].n_total, "diverged": diverged}


def _describe_count(call, result):
    return {"samples": call["count"]}


def _describe_training(call, result):
    return {} if isinstance(result, Exception) else {"epochs": len(result[1].train_loss)}


def _describe_master(dense_limit):
    def describe(call, result):
        schedule = call["schedule"]
        reservoir_dim = 1
        for d in call["rho0"].dims:
            reservoir_dim *= d
        source = call["source0"]
        intervals = schedule.times.shape[0] - 1
        # with a source the relaxation intervals run on the reservoir factor
        # alone and the injection intervals on the composite space
        relax = schedule.injection_index if source is not None else intervals
        composite = reservoir_dim * (source.dims[0] if source is not None else 1)
        series = 0
        if reservoir_dim > dense_limit:
            series += relax
        if composite > dense_limit:
            series += intervals - relax
        return {"intervals": intervals, "series_intervals": series}
    return describe


def install(tracer: Tracer, pp) -> None:
    """Patch every traced entry point; `pp` is the imported pplattice package."""
    dense_limit = getattr(pp.oracle, "DENSE_SUPEROP_LIMIT", DENSE_ORACLE_LIMIT)
    points = (
        (pp.model, "build_reservoir", "model.build_reservoir", None, False),
        (pp.learn, "sample_state", "sampler.sample_state", None, False),
        (pp.sampler, "sample_state", "sampler.sample_state", None, False),
        (pp.sampler, "sample_cat", "sampler.cat", _describe_count, True),
        (pp.sampler, "sample_squeezed_vacuum", "sampler.squeezed_vacuum", _describe_count, False),
        (pp.sampler, "sample_coherent", "sampler.coherent", _describe_count, False),
        (pp.learn, "run_ensemble", "dynamics.run_ensemble", _describe_ensemble, False),
        (pp.dynamics, "run_ensemble", "dynamics.run_ensemble", _describe_ensemble, False),
        (pp.dynamics, "stability_scan", "dynamics.stability_scan", None, False),
        (pp.learn, "steady_occupations", "observables.steady_occupations", None, False),
        (pp.learn, "feature_vector", "observables.feature_vector", None, False),
        (pp.learn, "generate_dataset", "learn.generate_dataset", None, False),
        (pp.learn, "train_classifier", "learn.train_classifier", _describe_training, False),
        (pp.learn, "train_regressor", "learn.train_regressor", _describe_training, False),
        (pp.learn, "evaluate", "learn.evaluate", None, False),
        (pp.oracle, "evolve_master", "oracle.evolve_master", _describe_master(dense_limit), True),
        (pp.oracle, "build_state_fock", "oracle.build_state_fock", None, False),
        (pp.oracle, "wigner_grid", "oracle.wigner_grid", None, False),
    )
    for module, attr, name, describe, track_alloc in points:
        tracer.patch(module, attr, name, describe, track_alloc)


# ---------------------------------------------------------------------------
# self time and per-layer metrics


def covered_length(intervals, lo: float, hi: float) -> float:
    """Length of the union of (start, end) intervals, clipped to [lo, hi]."""
    total, reach = 0.0, lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def _children(spans) -> dict:
    children: dict[int | None, list[Span]] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    return children


def _own_time(span: Span, children: dict) -> float:
    kids = [(c.start, c.end) for c in children.get(span.id, ())]
    return span.duration - covered_length(kids, span.start, span.end)


def self_times(spans, windows):
    """Per-layer self time of the spans inside the (start, end) windows.

    A span's self time is its duration minus the part its child spans cover.
    Returns (per-layer seconds, unattributed seconds): the window time no
    root span covers, which is time spent in the benchmark's own code.
    """
    inside = [s for s in spans
              if any(lo <= s.start and s.end <= hi for lo, hi in windows)]
    children = _children(inside)
    per_layer = dict.fromkeys(LAYERS, 0.0)
    for s in inside:
        per_layer[s.layer] = per_layer.get(s.layer, 0.0) + _own_time(s, children)
    roots = [(s.start, s.end) for s in children.get(None, ())]
    unattributed = sum(hi - lo - covered_length(roots, lo, hi) for lo, hi in windows)
    return per_layer, unattributed


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(setup_spans, spans, windows) -> dict:
    """Per-layer metrics from the spans of the traced iterations.

    `setup_spans` are the spans recorded while the workload was set up;
    only the reservoir build is read from them.
    """
    def named(name):
        return [s for s in spans if s.name == name]

    def seconds(group):
        return sum(s.duration for s in group)

    def attr_sum(group, key):
        return sum(s.attrs.get(key, 0) for s in group)

    m = {}
    cat = named("sampler.cat")
    squeezed = named("sampler.squeezed_vacuum")
    coherent = named("sampler.coherent")
    m["sampler.cat.s"] = seconds(cat)
    m["sampler.cat.samples_per_s"] = _ratio(attr_sum(cat, "samples"), seconds(cat))
    m["sampler.cat.peak_alloc_mb"] = max(
        (s.attrs.get("peak_alloc_mb", 0.0) for s in cat), default=0.0)
    m["sampler.squeezed_vacuum.s"] = seconds(squeezed)
    m["sampler.coherent.s"] = seconds(coherent)
    m["sampler.calls"] = len(cat) + len(squeezed) + len(coherent)

    ensembles = named("dynamics.run_ensemble")
    m["dynamics.run_ensemble.s"] = seconds(ensembles)
    m["dynamics.run_ensemble.calls"] = len(ensembles)
    for modes in TRACED_MODES:
        group = [s for s in ensembles if s.attrs.get("modes") == modes]
        steps = sum(s.attrs["trajectories"] * s.attrs["steps"] for s in group)
        m[f"dynamics.traj_steps_per_s.n{modes}"] = _ratio(steps, seconds(group))
    scans = {s.id for s in named("dynamics.stability_scan")}
    points = [s.duration for s in ensembles if s.parent in scans]
    m["dynamics.scan_point.p50_s"] = statistics.median(points) if points else 0.0
    m["dynamics.diverged_frac"] = _ratio(attr_sum(ensembles, "diverged"),
                                         attr_sum(ensembles, "trajectories"))
    m["dynamics.cpu_per_wall"] = _ratio(sum(s.cpu for s in ensembles), seconds(ensembles))

    m["observables.features.s"] = seconds(named("observables.feature_vector")) \
        + seconds(named("observables.steady_occupations"))

    children = _children(spans)
    m["learn.generate_dataset.self_s"] = sum(
        _own_time(s, children) for s in named("learn.generate_dataset"))
    for kind in ("classifier", "regressor"):
        group = named(f"learn.train_{kind}")
        m[f"learn.train_{kind}.epochs_per_s"] = _ratio(attr_sum(group, "epochs"), seconds(group))
    m["learn.evaluate.s"] = seconds(named("learn.evaluate"))

    masters = named("oracle.evolve_master")
    series = [s for s in masters if s.attrs.get("series_intervals")]
    dense = [s for s in masters if not s.attrs.get("series_intervals")]
    m["oracle.evolve_master.series.interval_s"] = _ratio(
        seconds(series), attr_sum(series, "series_intervals"))
    m["oracle.evolve_master.dense.interval_s"] = _ratio(
        seconds(dense), attr_sum(dense, "intervals"))
    m["oracle.intervals"] = attr_sum(masters, "intervals")
    m["oracle.evolve_master.peak_alloc_mb"] = max(
        (s.attrs.get("peak_alloc_mb", 0.0) for s in masters), default=0.0)
    m["oracle.build_state_fock.s"] = seconds(named("oracle.build_state_fock"))
    m["oracle.wigner_grid.s"] = seconds(named("oracle.wigner_grid"))

    m["model.build_reservoir.s"] = sum(
        s.duration for s in setup_spans + spans if s.name == "model.build_reservoir")

    per_layer_self, unattributed = self_times(spans, windows)
    for layer in LAYERS:
        m[f"self_s.{layer}"] = per_layer_self[layer]
    m["self_s.unattributed"] = unattributed
    m["trace.wall_s"] = sum(hi - lo for lo, hi in windows)
    return m
