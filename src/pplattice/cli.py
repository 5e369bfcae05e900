"""Command-line front end: reproducible experiment pipelines.

Every subcommand writes its outputs plus a run manifest (YAML) holding the
config snapshot, all seeds, package versions, timestamps, and sha256 digests
of the produced files, which together pin the outputs bit-for-bit.  Errors
are emitted as one-line JSON records on stderr; exit code 2 marks a
configuration problem, 3 a numerical failure.
"""

from __future__ import annotations

import argparse
import datetime
import hashlib
import json
import numbers
import platform
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .dynamics import DIVERGENCE_THRESHOLD, Schedule, run_ensemble, stability_scan
from .errors import ConfigError, NumericsError
from .learn import (BASELINE_PAIR_CONFUSED_ACCURACY, BASELINE_UNIFORM_ACCURACY,
                    CLASSIFY_HYPERPARAMS, REGRESS_HYPERPARAMS, Hyperparams,
                    evaluate, generate_dataset, train_classifier,
                    train_regressor)
from .model import ReservoirSpec, build_reservoir, load_reservoir, load_yaml, shape_for_modes
from .observables import csv_text
from .oracle import MAX_DIM, build_state_fock, evolve_master, vacuum_density, wigner_grid
from .sampler import StateSpec, load_samples, sample_state, vacuum_samples

ORACLE_MAX_MODES = 2


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _versions() -> dict:
    return {"pplattice": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


@dataclass
class RunManifest:
    """Everything needed to reproduce the run's outputs bit-for-bit.

    `output` hands out the path of an output file in `out_dir` and registers
    it; `save` records the sha256 of every registered file as it is on disk.
    """

    command: str
    out_dir: Path
    config: dict
    seeds: dict
    started: str = field(default_factory=_utc_now)
    outputs: list = field(default_factory=list)

    def output(self, name: str) -> Path:
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.outputs.append(name)
        return self.out_dir / name

    def save(self, name: str):
        """Write `<name>.manifest.yaml` next to the outputs."""
        body = {"command": self.command, "config": self.config,
                "seeds": self.seeds, "versions": _versions(),
                "started": self.started, "finished": _utc_now(),
                "outputs": {n: hashlib.sha256((self.out_dir / n).read_bytes()).hexdigest()
                            for n in self.outputs}}
        (self.out_dir / f"{name}.manifest.yaml").write_text(yaml.safe_dump(body, sort_keys=True))


def _block(cfg: dict, key: str) -> dict:
    """The optional sub-mapping `cfg[key]`, empty when absent."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {key!r} must be a mapping, "
                          f"got {type(block).__name__}")
    return block


def _number(cfg: dict, key: str, default=None, integer: bool = False):
    """Config value `key` ("block.name" inside a sub-mapping) as a float, or
    as an int for an integer key; `default` when absent.  Booleans, text that
    is not a number and, for integer keys, any non-integer are refused."""
    *blocks, name = key.split(".")
    for block in blocks:
        cfg = _block(cfg, block)
    value = cfg.get(name, default)
    if isinstance(value, bool) or (integer and not isinstance(value, numbers.Integral)):
        raise ConfigError(f"{key} must be {'an integer' if integer else 'a number'}, "
                          f"got {value!r}")
    try:
        return int(value) if integer else float(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{key} must be a number, got {value!r}") from None


def _state_from_file(path) -> StateSpec:
    return StateSpec.from_dict(load_yaml(path))


def _schedule_from_args(args) -> Schedule:
    return Schedule(t_relax=args.t_relax, t_final=args.t_final, dt=args.dt,
                    record_stride=args.stride)


def _add_schedule_flags(sub, t_relax=15.0, t_final=10.0, dt=0.05, stride=4):
    sub.add_argument("--t-relax", type=float, default=t_relax,
                     help="relaxation-phase duration before injection")
    sub.add_argument("--t-final", type=float, default=t_final,
                     help="injection-phase duration")
    sub.add_argument("--dt", type=float, default=dt, help="integrator step")
    sub.add_argument("--stride", type=int, default=stride,
                     help="steps between recorded samples")


# ---------------------------------------------------------------------------
# Subcommands


def cmd_gen_reservoir(args) -> None:
    manifest = RunManifest("gen-reservoir", args.out_dir,
                           config={"modes": args.modes, "kerr": args.kerr,
                                   "drive": args.drive, "loss": args.loss,
                                   "source_loss": args.source_loss},
                           seeds={"reservoir": args.seed})
    spec = build_reservoir(shape_for_modes(args.modes), kerr=args.kerr,
                           drive=args.drive, loss=args.loss,
                           source_loss=args.source_loss, seed=args.seed)
    spec_path = manifest.output(f"{args.name}.yaml")
    spec_path.write_text(spec.dumps())
    manifest.save(args.name)
    print(f"wrote {spec_path} ({spec.n_modes} modes, kerr={args.kerr})")


def cmd_sample_state(args) -> None:
    state = _state_from_file(args.state)
    manifest = RunManifest("sample-state", args.out_dir,
                           config={"state": state.to_dict(), "count": args.count},
                           seeds={"sampler": args.seed})
    samples = sample_state(state, args.count, seed=args.seed)
    path = manifest.output(f"{args.name}.samples")
    samples.save(path)
    manifest.save(args.name)
    print(f"wrote {path} ({args.count} samples of {state.kind})")


def cmd_simulate(args) -> None:
    spec = load_reservoir(args.reservoir)
    samples = load_samples(args.samples)
    schedule = _schedule_from_args(args)
    manifest = RunManifest("simulate", args.out_dir,
                           config={"reservoir": spec.to_dict(),
                                   "schedule": vars(schedule).copy(),
                                   "samples": str(args.samples)},
                           seeds={"ensemble": args.seed})
    series = run_ensemble(spec, samples, schedule, seed=args.seed)
    path = manifest.output(f"{args.name}.csv")
    path.write_text(series.to_csv())
    manifest.save(args.name)
    print(f"wrote {path} (divergence fraction {series.divergence_fraction:.4f})")


def cmd_stability_scan(args) -> None:
    cfg = load_yaml(args.config)
    if "threshold" in cfg:
        raise ConfigError("scan config key 'threshold' is not supported: the divergence "
                          f"cutoff is fixed at {DIVERGENCE_THRESHOLD:g}")
    axes = {name: np.linspace(_number(cfg, f"{name}.start"), _number(cfg, f"{name}.stop"),
                              _number(cfg, f"{name}.count", integer=True))
            for name in ("f", "kerr", "loss") if name in cfg}
    if "f" not in axes or len(axes) != 2:
        raise ConfigError("scan config needs an 'f' axis plus exactly one of 'kerr'/'loss'")
    kwargs = dict(trajectories=_number(cfg, "trajectories", 500, integer=True),
                  horizon=_number(cfg, "horizon", 25.0), dt=_number(cfg, "dt", 0.05),
                  seed=args.seed, workers=args.workers)
    if "kerr" in axes:
        kwargs["kerr_values"] = axes["kerr"]
        kwargs["loss"] = _number(cfg, "fixed.loss", 1.0)
    else:
        kwargs["loss_values"] = axes["loss"]
        kwargs["kerr"] = _number(cfg, "fixed.kerr", 0.1)
    manifest = RunManifest("stability-scan", args.out_dir, config=cfg,
                           seeds={"scan": args.seed})
    scan = stability_scan(axes["f"], **kwargs)
    path = manifest.output(f"{args.name}.csv")
    path.write_text(scan.to_csv())
    manifest.save(args.name)
    print(f"wrote {path} (min fraction {scan.fraction.min():.3f}, "
          f"max {scan.fraction.max():.3f})")


def cmd_oracle_compare(args) -> None:
    spec = load_reservoir(args.reservoir)
    if spec.n_modes > ORACLE_MAX_MODES:
        estimate = args.dim ** spec.n_modes * args.source_dim
        raise ConfigError(
            f"oracle comparison supports at most {ORACLE_MAX_MODES} modes; "
            f"{spec.n_modes} modes at d={args.dim} would need a composite "
            f"dimension of {estimate}")
    total = args.dim ** spec.n_modes * (args.source_dim if args.state else 1)
    if total > MAX_DIM:
        raise ConfigError(f"composite dimension {total} exceeds the oracle "
                          f"limit {MAX_DIM}; lower --dim/--source-dim")
    schedule = _schedule_from_args(args)
    state = _state_from_file(args.state) if args.state else None
    manifest = RunManifest(
        "oracle-compare", args.out_dir,
        config={"reservoir": spec.to_dict(),
                "state": state.to_dict() if state else None,
                "schedule": vars(schedule).copy(), "dim": args.dim,
                "source_dim": args.source_dim,
                "trajectories": args.trajectories},
        seeds={"sampler": args.seed, "ensemble": args.seed})

    if state is not None:
        samples = sample_state(state, args.trajectories, seed=args.seed)
        source = build_state_fock(state, args.source_dim)
    else:
        samples = vacuum_samples(args.trajectories)
        source = None
    series = run_ensemble(spec, samples, schedule, seed=args.seed)
    rho0 = vacuum_density((args.dim,) * spec.n_modes)
    master = evolve_master(rho0, spec, source, schedule)

    diff = np.abs(series.mean - master.occupation)
    noisy = series.stderr > 0
    header = ["time"] + [f"{col}_n{j}" for j in range(spec.n_modes)
                         for col in ("ppm", "oracle", "stderr")]
    cells = np.stack([series.mean, master.occupation, series.stderr], axis=-1)
    path = manifest.output(f"{args.name}.csv")
    path.write_text(csv_text(header, [[t, *row.ravel()]
                                      for t, row in zip(series.times, cells)]))
    manifest.save(args.name)
    print(f"wrote {path}")
    print(f"max |ppm - oracle| = {diff.max():.3e}")
    if noisy.any():
        print(f"max deviation / 3SE = {(diff[noisy] / (3.0 * series.stderr[noisy])).max():.3f}")
    else:
        print("max deviation / 3SE = n/a (ensemble is deterministic)")
    print(f"oracle trace error = {master.trace_error:.3e}")


def cmd_wigner(args) -> None:
    state = _state_from_file(args.state)
    manifest = RunManifest("wigner", args.out_dir,
                           config={"state": state.to_dict(), "dim": args.dim,
                                   "q": [args.q_min, args.q_max, args.points],
                                   "p": [args.p_min, args.p_max, args.points]},
                           seeds={})
    rho = build_state_fock(state, args.dim)
    with np.errstate(invalid="ignore"):     # wigner_grid refuses a non-finite axis
        q = np.linspace(args.q_min, args.q_max, args.points)
        p = np.linspace(args.p_min, args.p_max, args.points)
    grid = wigner_grid(rho, q, p)
    path = manifest.output(f"{args.name}.csv")
    path.write_text(grid.to_csv())
    manifest.save(args.name)
    print(f"wrote {path} (max W = {grid.values.max():.4f}, "
          f"min W = {grid.values.min():.4f})")


# ---------------------------------------------------------------------------
# Pipeline


def _pipeline_reservoir(cfg: dict, seed) -> ReservoirSpec:
    if "file" in cfg:
        return load_reservoir(cfg["file"])
    for key in ("modes", "kerr"):
        if key not in cfg:
            raise ConfigError(f"reservoir config needs {key!r} (or a 'file' key)")
    return build_reservoir(shape_for_modes(_number(cfg, "modes", integer=True)),
                           kerr=_number(cfg, "kerr"), drive=_number(cfg, "drive", 0.5),
                           loss=_number(cfg, "loss", 1.0),
                           source_loss=_number(cfg, "source_loss", 1.0),
                           seed=_number(cfg, "seed", seed, integer=True))


def _classify_runs(dataset, hyper: Hyperparams, run_seeds, prefix: str,
                   manifest: RunManifest) -> list[float]:
    """Train one readout per seed; write its model, curves and confusion."""
    accuracies = []
    for k, run_seed in enumerate(run_seeds):
        model, curves = train_classifier(dataset, replace(hyper, seed=run_seed))
        metrics = evaluate(model, dataset, "test")
        tag = f"{prefix}run{k}"
        manifest.output(f"model_{tag}.yaml").write_text(model.dumps())
        manifest.output(f"curves_{tag}.csv").write_text(curves.to_csv())
        manifest.output(f"confusion_{tag}.csv").write_text(
            metrics.confusion_csv(dataset.classes))
        accuracies.append(metrics.accuracy)
        print(f"{tag}: test accuracy {metrics.accuracy:.4f}")
    return accuracies


def _regress_run(dataset, hyper: Hyperparams, manifest: RunManifest) -> dict:
    """Train the squeezing readout; write its model, curves and test errors."""
    model, curves = train_regressor(dataset, hyper)
    metrics = evaluate(model, dataset, "test")
    manifest.output("model.yaml").write_text(model.dumps())
    manifest.output("curves.csv").write_text(curves.to_csv())
    zeta = dataset.targets("test")
    pred = model.predict_complex(dataset.features("test"))
    manifest.output("squared_errors.csv").write_text(csv_text(
        ["target_re", "target_im", "predicted_re", "predicted_im", "squared_error"],
        zip(zeta.real, zeta.imag, pred.real, pred.imag, metrics.squared_errors)))
    z_train = dataset.targets("train")
    variance = float(np.mean(np.abs(z_train - z_train.mean()) ** 2))
    print(f"test MSE {metrics.mse:.5f} vs train-target variance {variance:.5f}")
    return {"test_mse": metrics.mse, "train_target_variance": variance,
            "beats_mean_baseline": bool(metrics.mse < variance)}


def cmd_pipeline(args) -> None:
    cfg = load_yaml(args.config)
    task = cfg.get("task")
    if task not in ("classify", "predict_squeezing", "classify_sweep"):
        raise ConfigError(f"pipeline task must be classify, predict_squeezing, "
                          f"or classify_sweep; got {task!r}")
    regress = task == "predict_squeezing"
    base_seed = _number(cfg, "seed", 0 if args.seed is None else args.seed, integer=True)
    train_count = _number(cfg, "counts.train", 60, integer=True)
    test_count = _number(cfg, "counts.test", 15, integer=True)
    if test_count < 1:
        raise ConfigError(f"counts.test must be >= 1 to evaluate the readout, got {test_count}")
    trajectories = _number(cfg, "trajectories", 2000, integer=True)
    runs = _number(cfg, "runs", 1 if regress else 3, integer=True)
    if regress and runs != 1:
        raise ConfigError(f"runs must be 1 for predict_squeezing, which trains one "
                          f"readout; got {runs}")
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    run_seeds = [base_seed + 1000 + k for k in range(runs)]
    schedule = Schedule(t_relax=_number(cfg, "schedule.t_relax", 15.0),
                        t_final=_number(cfg, "schedule.t_final", 10.0),
                        dt=_number(cfg, "schedule.dt", 0.05),
                        record_stride=_number(cfg, "schedule.record_stride", 4, integer=True))
    defaults = REGRESS_HYPERPARAMS if regress else CLASSIFY_HYPERPARAMS
    hyper = Hyperparams(
        learning_rate=_number(cfg, "hyperparams.learning_rate", defaults.learning_rate),
        epochs=_number(cfg, "hyperparams.epochs", defaults.epochs, integer=True),
        batch_size=_block(cfg, "hyperparams").get("batch_size", defaults.batch_size),
        seed=run_seeds[0])
    # (dataset file, run-tag prefix, dataset seed, reservoir) for each size
    res_cfg = _block(cfg, "reservoir")
    if task == "classify_sweep":
        if "file" in res_cfg:
            raise ConfigError("a classify_sweep draws one reservoir per size; "
                              "reservoir.file is not allowed")
        modes = cfg.get("sweep_modes", [2, 3, 4, 5, 6, 7])
        if not (isinstance(modes, list) and modes and all(type(n) is int for n in modes)):
            raise ConfigError(f"sweep_modes must be a non-empty list of integers, "
                              f"got {modes!r}")
        sizes = [(f"dataset_n{n}.csv", f"n{n}_", (base_seed, n),
                  _pipeline_reservoir({"kerr": 0.05, **res_cfg, "modes": n}, base_seed))
                 for n in modes]
    else:
        sizes = [("dataset.csv", "", base_seed, _pipeline_reservoir(res_cfg, base_seed))]
    manifest = RunManifest("pipeline", args.out_dir, config=cfg,
                           seeds={"base": base_seed, "runs": run_seeds})

    summaries = []
    for dataset_name, prefix, seed, spec in sizes:
        dataset = generate_dataset(
            "predict_squeezing" if regress else "classify", spec, schedule,
            train_count=train_count, test_count=test_count,
            trajectories=trajectories, seed=seed, workers=args.workers)
        manifest.output(dataset_name).write_text(dataset.to_csv())
        summary = {"dataset_hash": dataset.content_hash(),
                   "n_modes": spec.n_modes, "records": len(dataset.records),
                   "flagged": sum(1 for r in dataset.records if r.flagged)}
        if regress:
            summary.update(_regress_run(dataset, hyper, manifest))
        else:
            accuracies = _classify_runs(dataset, hyper, run_seeds, prefix, manifest)
            summary.update(accuracies=accuracies,
                           mean_accuracy=float(np.mean(accuracies)))
        summaries.append(summary)

    if task == "classify_sweep":
        metrics = {"task": task, "sizes": summaries}
        manifest.output("accuracy_vs_n.csv").write_text(csv_text(
            ["n_modes", "run", "accuracy"],
            [(s["n_modes"], k, a) for s in summaries for k, a in enumerate(s["accuracies"])]))
        manifest.output("accuracy_vs_n_mean.csv").write_text(csv_text(
            ["n_modes", "mean_accuracy"], [(s["n_modes"], s["mean_accuracy"]) for s in summaries]))
    else:
        metrics = {"task": task, **summaries[0]}
    if not regress:
        metrics.update(baseline_uniform=BASELINE_UNIFORM_ACCURACY,
                       baseline_pair_confused=BASELINE_PAIR_CONFUSED_ACCURACY)
    manifest.output("metrics.yaml").write_text(yaml.safe_dump(metrics, sort_keys=True))
    manifest.save("pipeline")


# ---------------------------------------------------------------------------
# Parser and entry point


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pplattice",
        description="Positive-P simulation of driven Kerr lattices with "
                    "quantum state injection and reservoir-computing readout.")
    parser.add_argument("--seed", type=int, default=None, help="root seed")
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for state-level fan-out")
    parser.add_argument("--out-dir", type=Path, default=".", help="output directory")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-reservoir", help="draw and save a reservoir spec")
    g.add_argument("--modes", type=int, required=True)
    g.add_argument("--kerr", type=float, required=True)
    g.add_argument("--drive", type=float, default=0.5)
    g.add_argument("--loss", type=float, default=1.0)
    g.add_argument("--source-loss", type=float, default=1.0)
    g.add_argument("--name", default="reservoir")
    g.set_defaults(func=cmd_gen_reservoir)

    s = sub.add_parser("sample-state", help="sample a phase-space ensemble")
    s.add_argument("--state", required=True, help="YAML state description")
    s.add_argument("--count", type=int, required=True)
    s.add_argument("--name", default="state")
    s.set_defaults(func=cmd_sample_state)

    m = sub.add_parser("simulate", help="run a trajectory ensemble")
    m.add_argument("--reservoir", required=True)
    m.add_argument("--samples", required=True)
    m.add_argument("--name", default="occupations")
    _add_schedule_flags(m)
    m.set_defaults(func=cmd_simulate)

    p = sub.add_parser("pipeline", help="dataset + training + metrics")
    p.add_argument("--config", required=True, help="YAML experiment config")
    p.set_defaults(func=cmd_pipeline)

    t = sub.add_parser("stability-scan", help="convergent-fraction grid")
    t.add_argument("--config", required=True, help="YAML scan config")
    t.add_argument("--name", default="stability")
    t.set_defaults(func=cmd_stability_scan)

    o = sub.add_parser("oracle-compare",
                       help="stochastic ensemble vs exact master equation")
    o.add_argument("--reservoir", required=True)
    o.add_argument("--state", default=None,
                   help="YAML source state; omit for a drive-only run")
    o.add_argument("--dim", type=int, default=12, help="Fock levels per mode")
    o.add_argument("--source-dim", type=int, default=12)
    o.add_argument("--trajectories", type=int, default=4000)
    o.add_argument("--name", default="compare")
    _add_schedule_flags(o, t_relax=5.0, t_final=8.0, dt=0.05, stride=20)
    o.set_defaults(func=cmd_oracle_compare)

    w = sub.add_parser("wigner", help="Wigner function of a model state")
    w.add_argument("--state", required=True)
    w.add_argument("--dim", type=int, default=40)
    w.add_argument("--q-min", type=float, default=-4.0)
    w.add_argument("--q-max", type=float, default=4.0)
    w.add_argument("--p-min", type=float, default=-4.0)
    w.add_argument("--p-max", type=float, default=4.0)
    w.add_argument("--points", type=int, default=81)
    w.add_argument("--name", default="wigner")
    w.set_defaults(func=cmd_wigner)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except (ConfigError, NumericsError) as exc:
        code = 2 if isinstance(exc, ConfigError) else 3
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
