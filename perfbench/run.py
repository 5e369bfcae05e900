"""Benchmark runner: one workload per process, end-to-end or traced.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 30 --trace 0

Run it from the repository root; it imports pplattice from ./src and
nothing else.  With --trace 0 it sets up, then runs the workload's
iterations for --seconds (at least one; another one starts only if it is
expected to end in time) and reports the end-to-end metrics.  With --trace 1
it runs pairs of iterations on the same inputs, one plain and one with spans
around every public call, and reports the per-layer metrics.  Information lines go to stdout first; the last line
is one JSON object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import tracing

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREADS = 1           # fixed, and never more than the machine's cores
SETUP_REPEATS = 5          # this process plus four fresh ones
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def pin_blas_threads() -> dict:
    """Fix the BLAS thread count; must run before numpy is imported."""
    before = {name: os.environ.get(name) for name in THREAD_VARIABLES}
    for name in THREAD_VARIABLES:
        os.environ[name] = str(BLAS_THREADS)
    return before


def apply_numpy_shim(np) -> bool:
    """Alias np.trapz to np.trapezoid when NumPy >= 2.4 removed it.

    pplattice evaluates np.trapz at import time; this keeps the package
    importable without touching it, and does nothing once np.trapz exists
    or the package stops needing it.
    """
    if hasattr(np, "trapz"):
        return False
    np.trapz = np.trapezoid
    return True


def import_package():
    """Import pplattice from this checkout's src/ and refuse any other copy."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import pplattice
    where = Path(pplattice.__file__).resolve()
    if src.resolve() not in where.parents:
        raise ImportError(f"pplattice was imported from {where}, not from {src}")
    return pplattice


def _commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(np, scipy, shim_fired: bool, threads_before: dict) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # NumPy < 1.26 has no dict form
        blas = {}
    return {
        "commit": _commit(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "config": blas.get("openblas configuration")},
        "blas_threads": {"pinned": BLAS_THREADS, "env_before": threads_before},
        "trapz_shim_fired": shim_fired,
        "workers": 1,
    }


def _setup_in_fresh_process(args) -> float:
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", "1", "--trace", "0", "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up in a fresh process failed: {done.stderr.strip()}")
    return float(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])


class Tally:
    """Checked operations across iterations."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.info: list[dict] = []

    def run(self, workload, seed):
        """One iteration; returns (outcome or None, wall seconds)."""
        started = time.perf_counter()
        try:
            outcome = workload.iterate(seed)
        except Exception:
            wall = time.perf_counter() - started
            traceback.print_exc(file=sys.stderr)
            self.attempted += 1
            self.failed += 1
            self.failures.append(f"seed {list(seed)}: iteration raised")
            return None, wall
        wall = time.perf_counter() - started
        for name, passed in outcome.checks:
            self.attempted += 1
            if not passed:
                self.failed += 1
                self.failures.append(f"seed {list(seed)}: {name}")
        self.info.append(outcome.info)
        return outcome, wall


def _median(values):
    return statistics.median(values) if values else 0.0


def _another_fits(started: float, durations, seconds: float) -> bool:
    """True while nothing has run yet, or one more iteration of the median
    duration so far is expected to end within `seconds` of `started`."""
    if not durations:
        return True
    return time.perf_counter() - started + _median(durations) <= seconds


def end_to_end(args, workload, tally, setups):
    outcomes, walls = [], []
    started = time.perf_counter()
    while _another_fits(started, walls, args.seconds):
        outcome, wall = tally.run(workload, (args.seed, len(walls)))
        walls.append(wall)
        if outcome is None:
            break
        outcomes.append(outcome)
    values = {
        "wall_s": (_median(walls), "s"),
        "setup_s": (_median(setups), "s"),
        "traj_steps_per_s": (_median([o.traj_steps / o.traj_s for o in outcomes]), "1/s"),
        "records_per_s": (_median([o.records / o.records_s for o in outcomes]), "1/s"),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return values, {"iteration_walls_s": walls, "setups_s": setups}


def traced(args, workload, tally, tracer, setup_spans, pp):
    plain_walls, traced_walls, windows = [], [], []
    started = time.perf_counter()
    while _another_fits(started, [a + b for a, b in zip(plain_walls, traced_walls)],
                        args.seconds):
        seed = (args.seed, len(windows))
        outcome, wall = tally.run(workload, seed)
        if outcome is None:
            break
        plain_walls.append(wall)
        tracing.install(tracer, pp)
        try:
            begin = time.perf_counter()
            outcome, wall = tally.run(workload, seed)
            windows.append((begin, time.perf_counter()))
        finally:
            tracer.restore()
        traced_walls.append(wall)
        if outcome is None:
            break
    metrics = tracing.layer_metrics(setup_spans, tracer.spans, windows)
    paired = min(len(plain_walls), len(traced_walls))
    metrics["trace.overhead_frac"] = (
        sum(traced_walls[:paired]) / sum(plain_walls[:paired]) - 1.0 if paired else 0.0)
    values = {name: (value, tracing.unit_of(name)) for name, value in metrics.items()}
    shares = {layer: metrics[f"self_s.{layer}"] / metrics["trace.wall_s"]
              for layer in tracing.LAYERS + ("unattributed",)}
    _write_spans(args, tracer.spans + setup_spans)
    return values, {"plain_walls_s": plain_walls, "traced_walls_s": traced_walls,
                    "self_time_shares": shares}


def _write_spans(args, spans):
    out = ROOT / "perfbench" / "out"
    out.mkdir(exist_ok=True)
    path = out / f"spans-{args.workload}-seed{args.seed}.jsonl"
    with open(path, "w") as fh:
        for s in sorted(spans, key=lambda s: s.start):
            fh.write(json.dumps({"id": s.id, "name": s.name, "parent": s.parent,
                                 "start": s.start, "end": s.end, "cpu": s.cpu,
                                 "attrs": s.attrs}) + "\n")


def _natural(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be >= 0, got {value}")
    return value


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("desk", "scan", "oracle"))
    parser.add_argument("--seed", type=_natural, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the set-up time and exit (used to "
                             "repeat set-up in fresh processes)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    started = time.perf_counter()
    args = parse_args(argv)
    threads_before = pin_blas_threads()
    import numpy as np
    shim_fired = apply_numpy_shim(np)
    try:
        pp = import_package()
    except ImportError as exc:
        print(f"cannot import pplattice from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    import scipy
    import workloads

    tracer = tracing.Tracer()
    if args.trace:
        tracing.install(tracer, pp)
    try:
        workload = workloads.build(args.workload)
        workload.warm_up()
    finally:
        tracer.restore()
    setup_spans, tracer.spans = tracer.spans, []
    setup = time.perf_counter() - started
    if args.setup_only:
        print(json.dumps({"setup_s": setup}))
        return 0

    tally = Tally()
    if args.trace:
        values, run_info = traced(args, workload, tally, tracer, setup_spans, pp)
    else:
        setups = [setup] + [_setup_in_fresh_process(args)
                            for _ in range(SETUP_REPEATS - 1)]
        values, run_info = end_to_end(args, workload, tally, setups)

    info = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "environment": environment(np, scipy, shim_fired, threads_before),
            "failed_frac": tally.failed / tally.attempted,
            "failures": tally.failures, "outputs": tally.info, **run_info}
    print(json.dumps({"info": info}, default=float))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
