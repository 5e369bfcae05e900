"""The three benchmark workloads: desk pipeline, stability scan, oracle cross-check.

Each workload builds its configs and reservoirs once (set-up), warms up with
tiny calls through the same entry points, and then runs iterations.  An
iteration takes a seed tuple, drives pplattice's public functions with inputs
made from it, times the calls, and checks the outputs.  Callees are looked up
on their modules at call time so that a tracer can wrap them.

Why these three: each layer that an open roadmap item changes does most of
the work in one workload and almost none in another.
  desk   -- integrator at N=4/5 in 512-row blocks, the cat sampler's grid,
            readout training (what dominates user time in the presets).
  scan   -- integrator at N=1 as many tiny ensembles, with a quarter of the
            trajectories diverging; sampler, learn and oracle are bypassed.
  oracle -- exact propagation on the Taylor series path (composite dim 432)
            and the dense expm path; the only workload that runs the oracle.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from pplattice import dynamics, learn, model, oracle, sampler

SE_BOUND = 5.0  # ensemble vs oracle; the 3-SE acceptance criterion stays in tests/

# Full sizes are what the benchmark measures; tiny sizes keep the shapes and
# only make the self-tests fast.
DESK_FULL = {
    "schedule": (15.0, 10.0, 0.05, 4),
    "trajectories": 2000,
    "classify": {"modes": 4, "kerr": 0.05, "train": 1, "test": 1,
                 "epochs": 10_000, "batch_size": None},
    "regress": {"modes": 5, "kerr": 0.1, "train": 2, "test": 1,
                "epochs": 25_000, "batch_size": 1},
}
DESK_TINY = {
    "schedule": (1.0, 1.0, 0.05, 4),
    "trajectories": 16,
    "classify": {"modes": 4, "kerr": 0.05, "train": 1, "test": 1,
                 "epochs": 50, "batch_size": None},
    "regress": {"modes": 5, "kerr": 0.1, "train": 2, "test": 1,
                "epochs": 50, "batch_size": 1},
}
SCAN_FULL = {"drive": (0.0, 5.0, 4), "kerr": (0.0, 1.0, 4), "loss": 1.0,
             "trajectories": 500, "horizon": 25.0, "dt": 0.05}
SCAN_TINY = {"drive": (0.0, 5.0, 2), "kerr": (0.0, 1.0, 2), "loss": 1.0,
             "trajectories": 32, "horizon": 10.0, "dt": 0.05}
ORACLE_FULL = {
    "cascade": {"reservoir_seed": 42, "kerr": 0.05, "beta": 1.0,
                "source_dim": 12, "reservoir_dim": 6,
                "schedule": (5.0, 8.0, 0.05, 20), "trajectories": 4000},
    "kerr": {"drive": 1.0, "kerr": 0.1, "loss": 1.0, "dim": 30,
             "schedule": (25.0, 0.0, 0.05, 4)},
    "wigner": {"beta": 1.2, "dim": 40, "points": 81, "halfwidth": 4.0},
}
ORACLE_TINY = {
    "cascade": {"reservoir_seed": 42, "kerr": 0.05, "beta": 1.0,
                "source_dim": 12, "reservoir_dim": 5,
                "schedule": (1.0, 2.0, 0.05, 20), "trajectories": 400},
    "kerr": {"drive": 1.0, "kerr": 0.1, "loss": 1.0, "dim": 12,
             "schedule": (2.0, 0.0, 0.05, 4)},
    "wigner": {"beta": 1.2, "dim": 20, "points": 41, "halfwidth": 4.0},
}


@dataclass
class Outcome:
    """What one iteration did: rate numerators and denominators, checks, info."""

    traj_steps: int = 0
    traj_s: float = 0.0          # wall time the trajectory rate is taken over
    records: int = 0
    records_s: float = 0.0       # wall time of the calls that produce them
    checks: list = field(default_factory=list)   # (name, passed)
    info: dict = field(default_factory=dict)


def _timed(fn, *args, **kwargs):
    started = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - started


def se_ratio(mean, stderr, exact) -> float:
    """Largest |mean - exact| / stderr; points with zero error must agree exactly."""
    diff = np.abs(np.asarray(mean) - np.asarray(exact))
    stderr = np.asarray(stderr)
    ratio = np.zeros_like(diff)
    noisy = stderr > 0
    ratio[noisy] = diff[noisy] / stderr[noisy]
    ratio[~noisy & (diff > 0)] = np.inf
    return float(ratio.max())


class Desk:
    """Both desk presets at reduced record counts, in cmd_pipeline's order:
    generate_dataset -> train_classifier / train_regressor -> evaluate."""

    name = "desk"

    def __init__(self, size=DESK_FULL):
        self.size = size
        self.schedule = dynamics.Schedule(*size["schedule"])
        # drive 0.5, loss 1 and source loss 1 are the presets' and the defaults
        self.specs = {
            task: model.build_reservoir(model.shape_for_modes(size[task]["modes"]),
                                        kerr=size[task]["kerr"], seed=7)
            for task in ("classify", "regress")}

    def warm_up(self):
        tiny = dynamics.Schedule(0.2, 0.2, 0.05, 4)
        for spec in self.specs.values():
            data = learn.generate_dataset("predict_squeezing", spec, tiny, train_count=2,
                                          test_count=1, trajectories=4, seed=0)
            readout, _ = learn.train_regressor(data, learn.Hyperparams(epochs=3, batch_size=1))
            learn.evaluate(readout, data, "test")

    def iterate(self, seed: tuple) -> Outcome:
        out = Outcome()
        trajectories = self.size["trajectories"]
        for k, task in enumerate(("classify", "regress")):
            cfg = self.size[task]
            data, took = _timed(
                learn.generate_dataset,
                "classify" if task == "classify" else "predict_squeezing",
                self.specs[task], self.schedule, train_count=cfg["train"],
                test_count=cfg["test"], trajectories=trajectories,
                seed=seed + (k,), workers=1)
            out.traj_s += took
            out.records_s += took
            hyper = learn.Hyperparams(learning_rate=5e-4, epochs=cfg["epochs"],
                                      batch_size=cfg["batch_size"],
                                      seed=int(seed[0]) * 1000 + int(seed[-1]))
            train = learn.train_classifier if task == "classify" else learn.train_regressor
            readout, curves = train(data, hyper)
            metrics = learn.evaluate(readout, data, "test")

            expected = (len(learn.CLASS_NAMES) if task == "classify" else 1) \
                * (cfg["train"] + cfg["test"])
            records = data.records
            out.records += len(records)
            out.traj_steps += len(records) * trajectories * self.schedule.n_total
            out.checks += [
                (f"{task}: {expected} records", len(records) == expected),
                (f"{task}: features finite",
                 all(np.all(np.isfinite(r.features)) for r in records)),
                (f"{task}: no record flagged", not any(r.flagged for r in records)),
                (f"{task}: final train loss below first",
                 bool(curves.train_loss[-1] < curves.train_loss[0])),
            ]
            out.info[task] = {
                "dataset_sha256": data.content_hash(),
                "max_divergence_fraction": max(r.divergence_fraction for r in records),
                ("test_accuracy" if task == "classify" else "test_mse"):
                    metrics.accuracy if task == "classify" else metrics.mse,
            }
        return out


class Scan:
    """One stability_scan over the drive x Kerr plane of stability_fu."""

    name = "scan"

    def __init__(self, size=SCAN_FULL):
        self.size = size
        self.drive = np.linspace(*size["drive"])
        self.kerr = np.linspace(*size["kerr"])
        self.steps = round(size["horizon"] / size["dt"])

    def warm_up(self):
        dynamics.stability_scan([0.0, 5.0], kerr_values=[0.0, 1.0], trajectories=4,
                                horizon=0.5, dt=self.size["dt"], seed=0,
                                loss=self.size["loss"])

    def iterate(self, seed: tuple) -> Outcome:
        size = self.size
        scan, took = _timed(
            dynamics.stability_scan, self.drive, kerr_values=self.kerr,
            trajectories=size["trajectories"], horizon=size["horizon"],
            dt=size["dt"], seed=seed, loss=size["loss"])
        frac = scan.fraction
        return Outcome(
            traj_steps=frac.size * size["trajectories"] * self.steps, traj_s=took,
            records=frac.size, records_s=took,
            checks=[("U=0 row exactly 1.0", bool(np.all(frac[0] == 1.0))),
                    ("high-drive high-Kerr corner below 1", bool(frac[-1, -1] < 1.0)),
                    ("fractions within [0, 1]", bool(np.all((frac >= 0) & (frac <= 1))))],
            info={"corner_fraction": float(frac[-1, -1]),
                  "diverged_fraction": float(1.0 - frac.mean())})


def _trapezoid(y, x, axis=-1):
    integrate = getattr(np, "trapezoid", None) or getattr(np, "trapz")
    return integrate(y, x, axis=axis)


class Oracle:
    """Criterion-3 cascade against the exact oracle, the criterion-2 Kerr
    oracle on the dense path, and the Wigner grid of a cat state."""

    name = "oracle"

    def __init__(self, size=ORACLE_FULL):
        self.size = size
        cascade, kerr = size["cascade"], size["kerr"]
        self.spec = model.build_reservoir(model.shape_for_modes(2), kerr=cascade["kerr"],
                                          seed=cascade["reservoir_seed"])
        self.schedule = dynamics.Schedule(*cascade["schedule"])
        self.state = sampler.coherent_state(cascade["beta"])
        self.kerr_spec = dynamics.build_single_mode(drive=kerr["drive"], kerr=kerr["kerr"],
                                                    loss=kerr["loss"])
        self.kerr_schedule = dynamics.Schedule(*kerr["schedule"])
        wig = size["wigner"]
        self.cat = sampler.cat_state(wig["beta"])
        self.axis = np.linspace(-wig["halfwidth"], wig["halfwidth"], wig["points"])

    def warm_up(self):
        tiny = dynamics.Schedule(0.2, 0.2, 0.05, 4)
        samples = sampler.sample_state(self.state, 4, seed=0)
        dynamics.run_ensemble(self.spec, samples, tiny, seed=0)
        source = oracle.build_state_fock(self.state, self.size["cascade"]["source_dim"])
        oracle.evolve_master(oracle.vacuum_density((3, 3)), self.spec, source, tiny)
        oracle.evolve_master(oracle.vacuum_density((4,)), self.kerr_spec, None, tiny)
        oracle.wigner_grid(source, self.axis[::5], self.axis[::5])

    def iterate(self, seed: tuple) -> Outcome:
        cascade = self.size["cascade"]
        out = Outcome()
        started = time.perf_counter()
        samples = sampler.sample_state(self.state, cascade["trajectories"], seed=seed)
        series = dynamics.run_ensemble(self.spec, samples, self.schedule, seed=seed)
        source = oracle.build_state_fock(self.state, cascade["source_dim"])
        rho0 = oracle.vacuum_density((cascade["reservoir_dim"],) * self.spec.n_modes)
        master, took = _timed(oracle.evolve_master, rho0, self.spec, source, self.schedule)
        kerr_rho0 = oracle.vacuum_density((self.size["kerr"]["dim"],))
        kerr_master, kerr_took = _timed(oracle.evolve_master, kerr_rho0, self.kerr_spec,
                                        None, self.kerr_schedule)
        cat_rho = oracle.build_state_fock(self.cat, self.size["wigner"]["dim"])
        grid = oracle.wigner_grid(cat_rho, self.axis, self.axis)
        # The ensemble is about 5 % of this workload and too short to time on
        # its own steadily; its own rate is the per-layer n2 figure.  Here the
        # rate is per second of the whole cross-check.
        out.traj_s = time.perf_counter() - started

        out.traj_steps = cascade["trajectories"] * self.schedule.n_total
        out.records = (self.schedule.times.size - 1) + (self.kerr_schedule.times.size - 1)
        out.records_s = took + kerr_took
        window = series.times >= self.schedule.t_relax - 1e-9
        ratio = se_ratio(series.mean[window], series.stderr[window],
                         master.occupation[window])
        mass = float(_trapezoid(_trapezoid(grid.values, grid.p, axis=1), grid.q))
        out.checks = [
            (f"cascade ensemble within {SE_BOUND:g} SE of the oracle", ratio < SE_BOUND),
            ("cascade oracle trace error below 1e-8", master.trace_error < 1e-8),
            ("Kerr oracle trace error below 1e-8", kerr_master.trace_error < 1e-8),
            ("Wigner mass within 1%", abs(mass - 1.0) < 0.01),
            ("cat Wigner minimum negative", float(grid.values.min()) < 0.0),
        ]
        out.info = {"cascade_max_se_ratio": ratio,
                    "cascade_trace_error": master.trace_error,
                    "kerr_trace_error": kerr_master.trace_error,
                    "kerr_final_occupation": float(kerr_master.occupation[-1, 0]),
                    "wigner_mass": mass, "wigner_min": float(grid.values.min())}
        return out


WORKLOADS = {"desk": (Desk, DESK_FULL, DESK_TINY),
             "scan": (Scan, SCAN_FULL, SCAN_TINY),
             "oracle": (Oracle, ORACLE_FULL, ORACLE_TINY)}


def build(name: str, tiny: bool = False):
    cls, full, small = WORKLOADS[name]
    return cls(small if tiny else full)
