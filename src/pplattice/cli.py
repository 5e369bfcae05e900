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
import platform
import sys
from dataclasses import dataclass, field
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
from .model import ReservoirSpec, build_reservoir, load_reservoir, shape_for_modes
from .oracle import MAX_DIM, build_state_fock, evolve_master, vacuum_density, wigner_grid
from .sampler import StateSpec, load_samples, sample_state, vacuum_samples

ORACLE_MAX_MODES = 2


def _utc_now() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds")


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _versions() -> dict:
    return {"pplattice": __version__, "numpy": np.__version__,
            "scipy": scipy.__version__, "python": platform.python_version()}


@dataclass
class RunManifest:
    """Everything needed to reproduce the run's outputs bit-for-bit."""

    command: str
    config: dict
    seeds: dict
    started: str
    versions: dict = field(default_factory=_versions)
    finished: str = ""
    outputs: dict = field(default_factory=dict)

    def add_output(self, path: Path):
        self.outputs[path.name] = _sha256(path)

    def save(self, path: Path):
        self.finished = _utc_now()
        body = {"command": self.command, "config": self.config,
                "seeds": self.seeds, "versions": self.versions,
                "started": self.started, "finished": self.finished,
                "outputs": self.outputs}
        with open(path, "w") as fh:
            yaml.safe_dump(body, fh, sort_keys=True)


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load_yaml(path) -> dict:
    try:
        with open(path) as fh:
            data = yaml.safe_load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}") from None
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path} must hold a mapping, got {type(data).__name__}")
    return data


def _state_from_file(path) -> StateSpec:
    return StateSpec.from_dict(_load_yaml(path))


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


def cmd_gen_reservoir(args) -> int:
    out = _out_dir(args)
    manifest = RunManifest(command="gen-reservoir", started=_utc_now(),
                           config={"modes": args.modes, "kerr": args.kerr,
                                   "drive": args.drive, "loss": args.loss,
                                   "source_loss": args.source_loss},
                           seeds={"reservoir": args.seed})
    spec = build_reservoir(shape_for_modes(args.modes), kerr=args.kerr,
                           drive=args.drive, loss=args.loss,
                           source_loss=args.source_loss, seed=args.seed)
    spec_path = out / f"{args.name}.yaml"
    spec.save(spec_path)
    manifest.add_output(spec_path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {spec_path} ({spec.n_modes} modes, kerr={args.kerr})")
    return 0


def cmd_sample_state(args) -> int:
    out = _out_dir(args)
    state = _state_from_file(args.state)
    manifest = RunManifest(command="sample-state", started=_utc_now(),
                           config={"state": state.to_dict(), "count": args.count},
                           seeds={"sampler": args.seed})
    samples = sample_state(state, args.count, seed=args.seed)
    path = out / f"{args.name}.samples"
    samples.save(path)
    manifest.add_output(path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {path} ({args.count} samples of {state.kind})")
    return 0


def cmd_simulate(args) -> int:
    out = _out_dir(args)
    spec = load_reservoir(args.reservoir)
    samples = load_samples(args.samples)
    schedule = _schedule_from_args(args)
    manifest = RunManifest(command="simulate", started=_utc_now(),
                           config={"reservoir": spec.to_dict(),
                                   "schedule": vars(schedule).copy(),
                                   "samples": str(args.samples),
                                   "threshold": args.threshold},
                           seeds={"ensemble": args.seed})
    series = run_ensemble(spec, samples, schedule, seed=args.seed,
                          threshold=args.threshold)
    path = out / f"{args.name}.csv"
    series.save(path)
    manifest.add_output(path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {path} (divergence fraction {series.divergence_fraction:.4f})")
    return 0


def cmd_stability_scan(args) -> int:
    out = _out_dir(args)
    cfg = _load_yaml(args.config)
    axes = {}
    for name in ("f", "kerr", "loss"):
        if name in cfg:
            axis = cfg[name]
            try:
                axes[name] = np.linspace(float(axis["start"]), float(axis["stop"]),
                                         int(axis["count"]))
            except (KeyError, TypeError) as exc:
                raise ConfigError(f"axis {name!r} needs start/stop/count: {exc}") from None
    if "f" not in axes or len(axes) != 2:
        raise ConfigError("scan config needs an 'f' axis plus exactly one of 'kerr'/'loss'")
    fixed = cfg.get("fixed", {})
    kwargs = dict(trajectories=int(cfg.get("trajectories", 500)),
                  horizon=float(cfg.get("horizon", 25.0)),
                  dt=float(cfg.get("dt", 0.05)),
                  threshold=float(cfg.get("threshold", 1e10)),
                  seed=args.seed)
    if "kerr" in axes:
        kwargs["kerr_values"] = axes["kerr"]
        kwargs["loss"] = float(fixed.get("loss", 1.0))
    else:
        kwargs["loss_values"] = axes["loss"]
        kwargs["kerr"] = float(fixed.get("kerr", 0.1))
    manifest = RunManifest(command="stability-scan", started=_utc_now(),
                           config=cfg, seeds={"scan": args.seed})
    scan = stability_scan(axes["f"], **kwargs)
    path = out / f"{args.name}.csv"
    scan.save(path)
    manifest.add_output(path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {path} (min fraction {scan.fraction.min():.3f}, "
          f"max {scan.fraction.max():.3f})")
    return 0


def cmd_oracle_compare(args) -> int:
    out = _out_dir(args)
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
        command="oracle-compare", started=_utc_now(),
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
    lines = ["time," + ",".join(
        f"ppm_n{j},oracle_n{j},stderr_n{j}" for j in range(spec.n_modes))]
    for k, t in enumerate(series.times):
        cells = [repr(float(t))]
        for j in range(spec.n_modes):
            cells += [repr(float(series.mean[k, j])),
                      repr(float(master.occupation[k, j])),
                      repr(float(series.stderr[k, j]))]
        lines.append(",".join(cells))
    path = out / f"{args.name}.csv"
    path.write_text("\n".join(lines) + "\n")
    manifest.add_output(path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {path}")
    print(f"max |ppm - oracle| = {diff.max():.3e}")
    if noisy.any():
        print(f"max deviation / 3SE = {(diff[noisy] / (3.0 * series.stderr[noisy])).max():.3f}")
    else:
        print("max deviation / 3SE = n/a (ensemble is deterministic)")
    print(f"oracle trace error = {master.trace_error:.3e}")
    return 0


def cmd_wigner(args) -> int:
    out = _out_dir(args)
    state = _state_from_file(args.state)
    manifest = RunManifest(command="wigner", started=_utc_now(),
                           config={"state": state.to_dict(), "dim": args.dim,
                                   "q": [args.q_min, args.q_max, args.points],
                                   "p": [args.p_min, args.p_max, args.points]},
                           seeds={})
    rho = build_state_fock(state, args.dim)
    grid = wigner_grid(rho, np.linspace(args.q_min, args.q_max, args.points),
                       np.linspace(args.p_min, args.p_max, args.points))
    path = out / f"{args.name}.csv"
    grid.save(path)
    manifest.add_output(path)
    manifest.save(out / f"{args.name}.manifest.yaml")
    print(f"wrote {path} (max W = {grid.values.max():.4f}, "
          f"min W = {grid.values.min():.4f})")
    return 0


# ---------------------------------------------------------------------------
# Pipeline


def _pipeline_reservoir(cfg: dict, seed) -> ReservoirSpec:
    if "file" in cfg:
        return load_reservoir(cfg["file"])
    try:
        modes = int(cfg["modes"])
        kerr = float(cfg["kerr"])
    except KeyError as exc:
        raise ConfigError(f"reservoir config needs {exc} (or a 'file' key)") from None
    return build_reservoir(shape_for_modes(modes), kerr=kerr,
                           drive=cfg.get("drive", 0.5),
                           loss=cfg.get("loss", 1.0),
                           source_loss=cfg.get("source_loss", 1.0),
                           seed=cfg.get("seed", seed))


def _pipeline_schedule(cfg: dict) -> Schedule:
    return Schedule(t_relax=float(cfg.get("t_relax", 15.0)),
                    t_final=float(cfg.get("t_final", 10.0)),
                    dt=float(cfg.get("dt", 0.05)),
                    record_stride=int(cfg.get("record_stride", 4)))


def _pipeline_hyper(cfg: dict, defaults: Hyperparams, seed: int) -> Hyperparams:
    return Hyperparams(
        learning_rate=float(cfg.get("learning_rate", defaults.learning_rate)),
        epochs=int(cfg.get("epochs", defaults.epochs)),
        batch_size=cfg.get("batch_size", defaults.batch_size),
        seed=seed)


def _classify_once(dataset, hyper_cfg, run_seed, out, tag, manifest):
    hyper = _pipeline_hyper(hyper_cfg, CLASSIFY_HYPERPARAMS, run_seed)
    model, curves = train_classifier(dataset, hyper)
    metrics = evaluate(model, dataset, "test")
    for name, obj in ((f"model_{tag}.yaml", model), (f"curves_{tag}.csv", curves)):
        path = out / name
        obj.save(path)
        manifest.add_output(path)
    conf_path = out / f"confusion_{tag}.csv"
    conf_path.write_text(metrics.confusion_csv(dataset.classes))
    manifest.add_output(conf_path)
    return metrics.accuracy


def cmd_pipeline(args) -> int:
    out = _out_dir(args)
    cfg = _load_yaml(args.config)
    task = cfg.get("task")
    if task not in ("classify", "predict_squeezing", "classify_sweep"):
        raise ConfigError(f"pipeline task must be classify, predict_squeezing, "
                          f"or classify_sweep; got {task!r}")
    base_seed = int(cfg.get("seed", args.seed if args.seed is not None else 0))
    counts = cfg.get("counts", {})
    train_count = int(counts.get("train", 60))
    test_count = int(counts.get("test", 15))
    trajectories = int(cfg.get("trajectories", 2000))
    runs = int(cfg.get("runs", 3))
    schedule = _pipeline_schedule(cfg.get("schedule", {}))
    hyper_cfg = cfg.get("hyperparams", {})
    manifest = RunManifest(command="pipeline", started=_utc_now(), config=cfg,
                           seeds={"base": base_seed,
                                  "runs": [base_seed + 1000 + k for k in range(runs)]})

    if task == "classify_sweep":
        sweep = cfg.get("sweep_modes", [2, 3, 4, 5, 6, 7])
        rows = ["n_modes,run,accuracy"]
        means = ["n_modes,mean_accuracy"]
        for n in sweep:
            res_cfg = dict(cfg.get("reservoir", {}))
            res_cfg["modes"] = int(n)
            res_cfg.setdefault("kerr", 0.05)
            spec = _pipeline_reservoir(res_cfg, base_seed)
            dataset = generate_dataset(
                "classify", spec, schedule, train_count=train_count,
                test_count=test_count, trajectories=trajectories,
                seed=(base_seed, int(n)), workers=args.workers)
            accs = []
            for k in range(runs):
                acc = _classify_once(dataset, hyper_cfg, base_seed + 1000 + k,
                                     out, f"n{n}_run{k}", manifest)
                rows.append(f"{n},{k},{acc!r}")
                accs.append(acc)
            means.append(f"{n},{float(np.mean(accs))!r}")
            print(f"N={n}: accuracies {[f'{a:.3f}' for a in accs]}")
        path = out / "accuracy_vs_n.csv"
        path.write_text("\n".join(rows) + "\n")
        manifest.add_output(path)
        mean_path = out / "accuracy_vs_n_mean.csv"
        mean_path.write_text("\n".join(means) + "\n")
        manifest.add_output(mean_path)
        manifest.save(out / "pipeline.manifest.yaml")
        print(f"wrote {path}")
        return 0

    spec = _pipeline_reservoir(cfg.get("reservoir", {}), base_seed)
    dataset = generate_dataset(
        "classify" if task == "classify" else "predict_squeezing", spec,
        schedule, train_count=train_count, test_count=test_count,
        trajectories=trajectories, seed=base_seed, workers=args.workers)
    ds_path = out / "dataset.csv"
    dataset.save(ds_path)
    manifest.add_output(ds_path)
    summary = {"task": task, "dataset_hash": dataset.content_hash(),
               "n_modes": spec.n_modes, "records": len(dataset.records),
               "flagged": sum(1 for r in dataset.records if r.flagged)}

    if task == "classify":
        accuracies = []
        for k in range(runs):
            acc = _classify_once(dataset, hyper_cfg, base_seed + 1000 + k,
                                 out, f"run{k}", manifest)
            accuracies.append(acc)
            print(f"run {k}: test accuracy {acc:.4f}")
        summary["accuracies"] = [float(a) for a in accuracies]
        summary["mean_accuracy"] = float(np.mean(accuracies))
        summary["baseline_uniform"] = BASELINE_UNIFORM_ACCURACY
        summary["baseline_pair_confused"] = BASELINE_PAIR_CONFUSED_ACCURACY
    else:
        hyper = _pipeline_hyper(hyper_cfg, REGRESS_HYPERPARAMS, base_seed + 1000)
        model, curves = train_regressor(dataset, hyper)
        metrics = evaluate(model, dataset, "test")
        for name, obj in (("model.yaml", model), ("curves.csv", curves)):
            path = out / name
            obj.save(path)
            manifest.add_output(path)
        zeta = dataset.targets("test")
        pred = model.predict_complex(dataset.features("test"))
        lines = ["target_re,target_im,predicted_re,predicted_im,squared_error"]
        for z, p in zip(zeta, pred):
            lines.append(f"{float(z.real)!r},{float(z.imag)!r},{float(p.real)!r},"
                         f"{float(p.imag)!r},{float(abs(z - p) ** 2)!r}")
        err_path = out / "squared_errors.csv"
        err_path.write_text("\n".join(lines) + "\n")
        manifest.add_output(err_path)
        z_train = dataset.targets("train")
        variance = float(np.mean(np.abs(z_train - z_train.mean()) ** 2))
        summary["test_mse"] = metrics.mse
        summary["train_target_variance"] = variance
        summary["beats_mean_baseline"] = bool(metrics.mse < variance)
        print(f"test MSE {metrics.mse:.5f} vs train-target variance {variance:.5f}")

    with open(out / "metrics.yaml", "w") as fh:
        yaml.safe_dump(summary, fh, sort_keys=True)
    manifest.add_output(out / "metrics.yaml")
    manifest.save(out / "pipeline.manifest.yaml")
    return 0


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
    parser.add_argument("--out-dir", default=".", help="output directory")
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
    m.add_argument("--threshold", type=float, default=1e10)
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
        return args.func(args)
    except ConfigError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": 2}), file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(json.dumps({"error": type(exc).__name__, "message": str(exc),
                          "exit_code": 3}), file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
