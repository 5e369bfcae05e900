"""Command-line front end: reproducible experiment pipelines.

Every subcommand writes its outputs through the run manifest that `main`
opens; `main` refuses a manifest path that cannot be written before the
command runs, and saves the manifest (YAML) once the command returns: the
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
import os
import platform
import sys
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np
import scipy
import yaml

from . import __version__
from .dynamics import Schedule, run_ensemble, stability_scan
from .errors import ConfigError, NumericsError
from .learn import (BASELINE_PAIR_CONFUSED_ACCURACY, BASELINE_UNIFORM_ACCURACY,
                    CLASSIFY_HYPERPARAMS, REGRESS_HYPERPARAMS, Hyperparams,
                    evaluate, generate_dataset, train_classifier,
                    train_regressor)
from .model import (ReservoirSpec, build_reservoir, checked_number, load_reservoir, load_yaml,
                    seed_key, shape_for_modes)
from .observables import csv_text
from .oracle import (build_state_fock, composite_dimension, evolve_master, vacuum_density,
                     wigner_grid)
from .sampler import StateSpec, load_samples, sample_state, vacuum_samples

ORACLE_MAX_MODES = 2

# The keys each config block takes ("" is the top level); any other is refused.
SCAN_KEYS = {"": {"f", "kerr", "loss", "fixed", "trajectories", "horizon", "dt"},
             **dict.fromkeys(("f", "kerr", "loss"), {"start", "stop", "count"})}
PIPELINE_KEYS = {"reservoir": {"file", "modes", "kerr", "drive", "loss", "source_loss", "seed"},
                 "schedule": {"t_relax", "t_final", "dt", "record_stride"},
                 "hyperparams": {"learning_rate", "epochs", "batch_size"},
                 "counts": {"train", "test"}}
PIPELINE_KEYS[""] = {"task", "seed", "trajectories", "runs", *PIPELINE_KEYS}


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _versions() -> dict:
    return {"pplattice": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


@dataclass
class RunManifest:
    """Everything needed to reproduce the run's outputs bit-for-bit.

    `cli.main` makes one per run and saves it once the command returns; the
    command fills in `config` and `seeds` and writes each output through
    `write`, which records the sha256 of the bytes it wrote.
    """

    command: str
    out_dir: Path
    config: dict = field(default_factory=dict)
    seeds: dict = field(default_factory=dict)
    started: str = field(default_factory=_utc_now)
    outputs: dict = field(default_factory=dict)      # file name -> sha256

    def write(self, name: str, data: str | bytes) -> Path:
        """Write output `name` in `out_dir` and register it; ConfigError
        naming the path if the directory or the file cannot be written."""
        data = data.encode() if isinstance(data, str) else data
        path = self.out_dir / name
        try:
            self.out_dir.mkdir(parents=True, exist_ok=True)
            path.write_bytes(data)
        except OSError as exc:
            raise ConfigError(f"cannot write {path} in output directory {self.out_dir}: "
                              f"{exc}") from None
        self.outputs[name] = hashlib.sha256(data).hexdigest()
        return path

    def check_writable(self, name: str) -> None:
        """ConfigError if `name` in `out_dir` is an existing directory or a
        read-only file; writes nothing."""
        path = self.out_dir / name
        if path.is_dir() or (path.exists() and not os.access(path, os.W_OK)):
            raise ConfigError(f"cannot write {path} in output directory {self.out_dir}: "
                              "a directory or a read-only file has that name")

    def save(self, name: str) -> None:
        """Write `<name>.manifest.yaml` next to the outputs."""
        body = {"command": self.command, "config": self.config,
                "seeds": self.seeds, "versions": _versions(),
                "started": self.started, "finished": _utc_now(),
                "outputs": dict(self.outputs)}
        self.write(f"{name}.manifest.yaml", yaml.safe_dump(body, sort_keys=True))


def _block(cfg: dict, key: str) -> dict:
    """The optional sub-mapping `cfg[key]`, empty when absent."""
    block = cfg.get(key, {})
    if not isinstance(block, dict):
        raise ConfigError(f"config block {key!r} must be a mapping, "
                          f"got {type(block).__name__}")
    return block


def _check_keys(cfg: dict, allowed: dict, kind: str) -> None:
    """Refuse the keys that `allowed` does not list for their block, dotted."""
    for block, keys in allowed.items():
        sub = _block(cfg, block) if block else cfg
        unknown = [f"{block}.{key}".lstrip(".") for key in sub if key not in keys]
        if unknown:
            raise ConfigError(f"{kind} config does not take {', '.join(map(repr, unknown))}; "
                              f"{block or 'its top level'} takes {', '.join(sorted(keys))}")


def _number(cfg: dict, key: str, default=None, integer: bool = False, minimum=None):
    """Config value `key` ("block.name" inside a sub-mapping), read by
    `checked_number` under its dotted name; `default` when absent."""
    *blocks, name = key.split(".")
    for block in blocks:
        cfg = _block(cfg, block)
    return checked_number(cfg.get(name, default), key, integer=integer, minimum=minimum)


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


def cmd_gen_reservoir(args, manifest: RunManifest) -> None:
    manifest.config = {"modes": args.modes, "kerr": args.kerr, "drive": args.drive,
                       "loss": args.loss, "source_loss": args.source_loss}
    manifest.seeds = {"reservoir": args.seed}
    spec = build_reservoir(shape_for_modes(args.modes), kerr=args.kerr,
                           drive=args.drive, loss=args.loss,
                           source_loss=args.source_loss, seed=args.seed)
    path = manifest.write(f"{args.name}.yaml", spec.dumps())
    print(f"wrote {path} ({spec.n_modes} modes, kerr={args.kerr})")


def cmd_sample_state(args, manifest: RunManifest) -> None:
    state = _state_from_file(args.state)
    manifest.config = {"state": state.to_dict(), "count": args.count}
    manifest.seeds = {"sampler": args.seed}
    samples = sample_state(state, args.count, seed=args.seed)
    path = manifest.write(f"{args.name}.samples", samples.to_bytes())
    print(f"wrote {path} ({args.count} samples of {state.kind})")


def cmd_simulate(args, manifest: RunManifest) -> None:
    spec = load_reservoir(args.reservoir)
    samples = load_samples(args.samples)
    schedule = _schedule_from_args(args)
    manifest.config = {"reservoir": spec.to_dict(), "schedule": vars(schedule).copy(),
                       "samples": str(args.samples)}
    manifest.seeds = {"ensemble": args.seed}
    series = run_ensemble(spec, samples, schedule, seed=args.seed)
    path = manifest.write(f"{args.name}.csv", series.to_csv())
    print(f"wrote {path} (divergence fraction {series.divergence_fraction:.4f})")


def cmd_stability_scan(args, manifest: RunManifest) -> None:
    cfg = load_yaml(args.config)
    # `fixed` holds the parameter that is not scanned
    other, fixed = ("kerr", "loss") if "kerr" in cfg else ("loss", "kerr")
    _check_keys(cfg, {**SCAN_KEYS, "fixed": {fixed}}, "stability-scan")
    axes = {name: np.linspace(_number(cfg, f"{name}.start"), _number(cfg, f"{name}.stop"),
                              _number(cfg, f"{name}.count", integer=True, minimum=1))
            for name in ("f", "kerr", "loss") if name in cfg}
    if "f" not in axes or len(axes) != 2:
        raise ConfigError("scan config needs an 'f' axis plus exactly one of 'kerr'/'loss'")
    kwargs = dict(trajectories=_number(cfg, "trajectories", 500, integer=True, minimum=1),
                  horizon=_number(cfg, "horizon", 25.0), dt=_number(cfg, "dt", 0.05),
                  seed=args.seed, workers=args.workers, **{f"{other}_values": axes[other]})
    if fixed in _block(cfg, "fixed"):          # else stability_scan's default
        kwargs[fixed] = _number(cfg, f"fixed.{fixed}")
    manifest.config, manifest.seeds = cfg, {"scan": args.seed}
    scan = stability_scan(axes["f"], **kwargs)
    path = manifest.write(f"{args.name}.csv", scan.to_csv())
    print(f"wrote {path} (min fraction {scan.fraction.min():.3f}, "
          f"max {scan.fraction.max():.3f})")


def cmd_oracle_compare(args, manifest: RunManifest) -> None:
    spec = load_reservoir(args.reservoir)
    if spec.n_modes > ORACLE_MAX_MODES:
        estimate = args.dim ** spec.n_modes * (args.source_dim if args.state else 1)
        raise ConfigError(
            f"oracle comparison supports at most {ORACLE_MAX_MODES} modes; "
            f"{spec.n_modes} modes at d={args.dim} would need a composite "
            f"dimension of {estimate}")
    composite_dimension((args.dim,) * spec.n_modes, args.source_dim if args.state else None)
    schedule = _schedule_from_args(args)
    state = _state_from_file(args.state) if args.state else None
    manifest.config = {"reservoir": spec.to_dict(),
                       "state": state.to_dict() if state else None,
                       "schedule": vars(schedule).copy(), "dim": args.dim,
                       "source_dim": args.source_dim, "trajectories": args.trajectories}
    manifest.seeds = {"sampler": args.seed, "ensemble": args.seed}

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
    path = manifest.write(f"{args.name}.csv", csv_text(
        header, [[t, *row.ravel()] for t, row in zip(series.times, cells)]))
    print(f"wrote {path}")
    print(f"max |ppm - oracle| = {diff.max():.3e}")
    if noisy.any():
        print(f"max deviation / 3SE = {(diff[noisy] / (3.0 * series.stderr[noisy])).max():.3f}")
    else:
        print("max deviation / 3SE = n/a (ensemble is deterministic)")
    print(f"oracle trace error = {master.trace_error:.3e}")


def cmd_wigner(args, manifest: RunManifest) -> None:
    state = _state_from_file(args.state)
    checked_number(args.points, "--points", integer=True, minimum=2)
    manifest.config = {"state": state.to_dict(), "dim": args.dim,
                       "q": [args.q_min, args.q_max, args.points],
                       "p": [args.p_min, args.p_max, args.points]}
    rho = build_state_fock(state, args.dim)
    with np.errstate(invalid="ignore"):     # wigner_grid refuses a non-finite axis
        q = np.linspace(args.q_min, args.q_max, args.points)
        p = np.linspace(args.p_min, args.p_max, args.points)
    grid = wigner_grid(rho, q, p)
    path = manifest.write(f"{args.name}.csv", grid.to_csv())
    print(f"wrote {path} (max W = {grid.values.max():.4f}, "
          f"min W = {grid.values.min():.4f})")


# ---------------------------------------------------------------------------
# Pipeline


def _pipeline_reservoir(cfg: dict, seed) -> ReservoirSpec:
    if "file" in cfg:
        return ReservoirSpec.from_dict(load_yaml(cfg["file"], "reservoir.file"))
    for key in ("modes", "kerr"):
        if key not in cfg:
            raise ConfigError(f"reservoir config needs {key!r} (or a 'file' key)")
    return build_reservoir(shape_for_modes(_number(cfg, "modes", integer=True)),
                           kerr=_number(cfg, "kerr"), drive=_number(cfg, "drive", 0.5),
                           loss=_number(cfg, "loss", 1.0),
                           source_loss=_number(cfg, "source_loss", 1.0),
                           seed=_number(cfg, "seed", seed, integer=True, minimum=0))


def _classify_runs(dataset, hyper: Hyperparams, run_seeds, prefix: str,
                   manifest: RunManifest) -> list[float]:
    """Train one readout per seed; write its model, curves and confusion."""
    accuracies = []
    for k, run_seed in enumerate(run_seeds):
        model, curves = train_classifier(dataset, replace(hyper, seed=run_seed))
        metrics = evaluate(model, dataset, "test")
        tag = f"{prefix}run{k}"
        manifest.write(f"model_{tag}.yaml", model.dumps())
        manifest.write(f"curves_{tag}.csv", curves.to_csv())
        manifest.write(f"confusion_{tag}.csv", metrics.confusion_csv(dataset.classes))
        accuracies.append(metrics.accuracy)
        print(f"{tag}: test accuracy {metrics.accuracy:.4f}")
    return accuracies


def _regress_run(dataset, hyper: Hyperparams, manifest: RunManifest) -> dict:
    """Train the squeezing readout; write its model, curves and test errors."""
    model, curves = train_regressor(dataset, hyper)
    metrics = evaluate(model, dataset, "test")
    manifest.write("model.yaml", model.dumps())
    manifest.write("curves.csv", curves.to_csv())
    zeta = dataset.targets("test")
    pred = model.predict_complex(dataset.features("test"))
    manifest.write("squared_errors.csv", csv_text(
        ["target_re", "target_im", "predicted_re", "predicted_im", "squared_error"],
        zip(zeta.real, zeta.imag, pred.real, pred.imag, metrics.squared_errors)))
    z_train = dataset.targets("train")
    variance = float(np.mean(np.abs(z_train - z_train.mean()) ** 2))
    print(f"test MSE {metrics.mse:.5f} vs train-target variance {variance:.5f}")
    return {"test_mse": metrics.mse, "train_target_variance": variance,
            "beats_mean_baseline": bool(metrics.mse < variance)}


def cmd_pipeline(args, manifest: RunManifest) -> None:
    cfg = load_yaml(args.config)
    task = cfg.get("task")
    if task not in ("classify", "predict_squeezing", "classify_sweep"):
        raise ConfigError(f"pipeline task must be classify, predict_squeezing, "
                          f"or classify_sweep; got {task!r}")
    regress, sweep = task == "predict_squeezing", task == "classify_sweep"
    res_cfg = _block(cfg, "reservoir")
    keys = {**PIPELINE_KEYS, "reservoir": {"file"}} if "file" in res_cfg else PIPELINE_KEYS
    if sweep:                       # each size draws its own reservoir: no file, no modes
        keys = {**keys, "": keys[""] | {"sweep_modes"},
                "reservoir": PIPELINE_KEYS["reservoir"] - {"file", "modes"}}
    _check_keys(cfg, keys, task)
    base_seed = _number(cfg, "seed", args.seed or 0, integer=True, minimum=0)
    train_count = _number(cfg, "counts.train", 60, integer=True, minimum=1)
    test_count = _number(cfg, "counts.test", 15, integer=True, minimum=1)
    trajectories = _number(cfg, "trajectories", 2000, integer=True, minimum=1)
    runs = _number(cfg, "runs", 1 if regress else 3, integer=True, minimum=1)
    if regress and runs != 1:
        raise ConfigError(f"runs must be 1 for predict_squeezing, which trains one "
                          f"readout; got {runs}")
    run_seeds = [base_seed + 1000 + k for k in range(runs)]
    schedule = Schedule(t_relax=_number(cfg, "schedule.t_relax", 15.0),
                        t_final=_number(cfg, "schedule.t_final", 10.0),
                        dt=_number(cfg, "schedule.dt", 0.05),
                        record_stride=_number(cfg, "schedule.record_stride", 4, integer=True))
    defaults = REGRESS_HYPERPARAMS if regress else CLASSIFY_HYPERPARAMS
    batch = _block(cfg, "hyperparams").get("batch_size", defaults.batch_size)  # None: full batch
    hyper = Hyperparams(
        learning_rate=_number(cfg, "hyperparams.learning_rate", defaults.learning_rate),
        epochs=_number(cfg, "hyperparams.epochs", defaults.epochs, integer=True),
        batch_size=None if batch is None else _number(
            cfg, "hyperparams.batch_size", batch, integer=True, minimum=1),
        seed=run_seeds[0])
    # (dataset file, run-tag prefix, dataset seed, reservoir) for each size
    if sweep:
        modes = cfg.get("sweep_modes", [2, 3, 4, 5, 6, 7])
        if not (isinstance(modes, list) and modes
                and all(type(n) is int and n >= 1 for n in modes)
                and len(set(modes)) == len(modes)):
            raise ConfigError(f"sweep_modes must be a non-empty list of distinct integers "
                              f">= 1, got {modes!r}")
        sizes = [(f"dataset_n{n}.csv", f"n{n}_", (base_seed, n),
                  _pipeline_reservoir({"kerr": 0.05, **res_cfg, "modes": n}, base_seed))
                 for n in modes]
    else:
        sizes = [("dataset.csv", "", base_seed, _pipeline_reservoir(res_cfg, base_seed))]
    manifest.config, manifest.seeds = cfg, {"base": base_seed, "runs": run_seeds}

    summaries = []
    for dataset_name, prefix, seed, spec in sizes:
        dataset = generate_dataset(
            "predict_squeezing" if regress else "classify", spec, schedule,
            train_count=train_count, test_count=test_count,
            trajectories=trajectories, seed=seed, workers=args.workers)
        manifest.write(dataset_name, dataset.to_csv())
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

    if sweep:
        metrics = {"task": task, "sizes": summaries}
        manifest.write("accuracy_vs_n.csv", csv_text(
            ["n_modes", "run", "accuracy"],
            [(s["n_modes"], k, a) for s in summaries for k, a in enumerate(s["accuracies"])]))
        manifest.write("accuracy_vs_n_mean.csv", csv_text(
            ["n_modes", "mean_accuracy"], [(s["n_modes"], s["mean_accuracy"]) for s in summaries]))
    else:
        metrics = {"task": task, **summaries[0]}
    if not regress:
        metrics.update(baseline_uniform=BASELINE_UNIFORM_ACCURACY,
                       baseline_pair_confused=BASELINE_PAIR_CONFUSED_ACCURACY)
    manifest.write("metrics.yaml", yaml.safe_dump(metrics, sort_keys=True))


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
    p.set_defaults(func=cmd_pipeline, name="pipeline")

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
        # refused even by the commands that draw nothing or fan nothing out
        if args.seed is not None:
            seed_key(args.seed)
        checked_number(args.workers, "workers", integer=True, minimum=1)
        manifest = RunManifest(args.command, args.out_dir)
        # refused before the command runs, so that no output is left unpinned
        manifest.check_writable(f"{args.name}.manifest.yaml")
        args.func(args, manifest)
        manifest.save(args.name)
    except (ConfigError, NumericsError) as exc:
        code = 2 if isinstance(exc, ConfigError) else 3
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": code}), file=sys.stderr)
        return code
    return 0


if __name__ == "__main__":
    sys.exit(main())
