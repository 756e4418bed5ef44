"""Command-line front end.

Commands::

    table1      linear coverage study (paper scale by default)
    table2      parameter-error study of the true-shape network
    table3      neural-network coverage study (desk scale by default)
    curves      predictive-curve export for one scenario and test point
    toy-curves  analytic Gaussian confidence/predictive curves
    verify      run the built-in verification suites

Every data-producing command requires ``--seed``; outputs are then byte
deterministic. Flags override values from an optional ``--config`` file
(flat ``key=value`` lines, ``#`` comments), which override the documented
defaults. Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass

import numpy as np

from .emit import emit_curves, emit_param_mse, emit_results
from .gaussian_toy import GaussianToySample, confidence_curve, predictive_curve_toy
from .mlp import SINGLE_RESTART, TrainerConfig
from .rng import RngStream
from .scenarios import LinearScenario, NnScenario
from .studies import (
    export_curves,
    linear_learner_specs,
    nn_learner_specs,
    run_param_mse_study,
    run_table_linear,
    run_table_nn,
)
from .verify import run_verify

TABLE_COMMANDS = ("table1", "table2", "table3")
CURVE_COMMANDS = ("curves", "toy-curves")

_CONFIG_KEYS = {
    "seed": int,
    "out": str,
    "format": str,
    "scale": str,
    "alpha": float,
    "n-train": int,
    "reps": int,
    "depth": int,
    "restarts": int,
    "scenario": str,
    "x-new": str,
    "grid-points": int,
    "n": int,
    "theta": float,
    "cov-shift-scale": float,
}

_X_NEW_MODES = ("sample-mean", "iid-draw", "non-iid-draw")


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


@dataclass
class RunConfig:
    command: str
    seed: int | None = None
    out: str | None = None
    format: str = "csv"
    scale: str | None = None
    alpha: float = 0.05
    n_train: int | None = None
    reps: int | None = None
    depth: int | None = None
    restarts: int | None = None
    scenario: str = "linear"
    x_new: str = "sample-mean"
    grid_points: int = 400
    n: int = 5
    theta: float = 1.35
    cov_shift_scale: float = 0.5


def _build_parser() -> _Parser:
    parser = _Parser(prog="predcurves")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name in (*TABLE_COMMANDS, *CURVE_COMMANDS, "verify"):
        p = sub.add_parser(name)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--format", choices=("csv", "json"), default=None)
        p.add_argument("--scale", choices=("desk", "paper"), default=None)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--n-train", type=int, default=None)
        p.add_argument("--reps", type=int, default=None)
        p.add_argument("--depth", type=int, default=None)
        p.add_argument("--restarts", type=int, default=None)
        if name == "table1":
            p.add_argument("--cov-shift-scale", type=float, default=None)
        if name == "curves":
            p.add_argument("--scenario", choices=("linear", "nn"), default=None)
            p.add_argument("--x-new", type=str, default=None)
            p.add_argument("--grid-points", type=int, default=None)
        if name == "toy-curves":
            p.add_argument("--grid-points", type=int, default=None)
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--theta", type=float, default=None)
    return parser


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file: {exc}")
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _CONFIG_KEYS:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            values[key] = _CONFIG_KEYS[key](value)
        except ValueError:
            raise UsageError(f"{path}:{lineno}: malformed value for {key!r}")
    return values


def parse_config(argv: list[str]) -> RunConfig:
    """Merge flags over config-file values over per-command defaults."""
    args = _build_parser().parse_args(argv)
    file_values = _read_config_file(args.config) if args.config else {}

    def pick(flag_name: str, file_key: str, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if file_key in file_values:
            return file_values[file_key]
        return default

    cfg = RunConfig(command=args.command)
    cfg.seed = pick("seed", "seed", None)
    cfg.out = pick("out", "out", None)
    cfg.format = pick("format", "format", "csv")
    cfg.scale = pick("scale", "scale", "desk" if args.command == "table3" else "paper")
    cfg.alpha = pick("alpha", "alpha", 0.05)
    cfg.n_train = pick("n_train", "n-train", None)
    cfg.reps = pick("reps", "reps", None)
    cfg.depth = pick("depth", "depth", None)
    cfg.restarts = pick("restarts", "restarts", None)
    cfg.scenario = pick("scenario", "scenario", "linear")
    cfg.x_new = pick("x_new", "x-new", "sample-mean")
    cfg.grid_points = pick("grid_points", "grid-points", 400)
    cfg.n = pick("n", "n", 5)
    cfg.theta = pick("theta", "theta", 1.35)
    cfg.cov_shift_scale = pick("cov_shift_scale", "cov-shift-scale", 0.5)

    if cfg.command in TABLE_COMMANDS + CURVE_COMMANDS and cfg.seed is None:
        raise UsageError(f"{cfg.command} requires --seed")
    if cfg.seed is not None and not 0 <= cfg.seed < 2**64:
        raise UsageError("--seed must be an unsigned 64-bit integer")
    if not 0.0 < cfg.alpha < 1.0:
        raise UsageError(f"--alpha must be in (0, 1), got {cfg.alpha}")
    if not cfg.cov_shift_scale > 0.0:
        raise UsageError(f"--cov-shift-scale must be positive, got {cfg.cov_shift_scale}")
    for field_name in ("n_train", "reps", "depth", "restarts", "grid_points", "n"):
        value = getattr(cfg, field_name)
        if value is not None and value < 1:
            raise UsageError(f"--{field_name.replace('_', '-')} must be positive")
    return cfg


def _parse_x_new(text: str):
    if text in _X_NEW_MODES:
        return text
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise UsageError(
            f"--x-new must be one of {_X_NEW_MODES} or comma-separated floats, got {text!r}"
        )


def _opt_config(restarts: int | None) -> TrainerConfig:
    return TrainerConfig() if restarts is None else TrainerConfig(restarts=restarts)


def _run_table1(cfg: RunConfig) -> str:
    n_train = cfg.n_train or (300 if cfg.scale == "paper" else 100)
    reps = cfg.reps or (200 if cfg.scale == "paper" else 50)
    scenario = LinearScenario(cov_shift_scale=cfg.cov_shift_scale)
    rows = run_table_linear(cfg.seed, alpha=cfg.alpha, n_train=n_train, reps=reps, scenario=scenario)
    return emit_results(rows, cfg.format, cfg.out)


def _run_table2(cfg: RunConfig) -> str:
    n_train = cfg.n_train or (300 if cfg.scale == "paper" else 120)
    reps = cfg.reps or (10 if cfg.scale == "paper" else 3)
    table = run_param_mse_study(
        cfg.seed, n_train=n_train, reps=reps, opt_config=_opt_config(cfg.restarts)
    )
    return emit_param_mse(table, cfg.format, cfg.out)


def _run_table3(cfg: RunConfig) -> str:
    if cfg.scale == "paper":
        print(
            "warning: paper-scale table3 fits deep networks for every leave-one-out fold; "
            "expect a long run",
            file=sys.stderr,
        )
    n_train = cfg.n_train or (300 if cfg.scale == "paper" else 100)
    reps = cfg.reps or (10 if cfg.scale == "paper" else 5)
    if cfg.depth is not None:
        depths = (cfg.depth, cfg.depth)
    else:
        depths = (20, 100) if cfg.scale == "paper" else (5, 5)
    rows = run_table_nn(
        cfg.seed,
        alpha=cfg.alpha,
        n_train=n_train,
        reps=reps,
        deep_depths=depths,
        opt_config=_opt_config(cfg.restarts),
        single_config=SINGLE_RESTART,
    )
    return emit_results(rows, cfg.format, cfg.out)


def _run_curves(cfg: RunConfig) -> str:
    x_new = _parse_x_new(cfg.x_new) if isinstance(cfg.x_new, str) else cfg.x_new
    if cfg.scenario == "linear":
        scenario = LinearScenario()
        specs = linear_learner_specs()
        n_train = cfg.n_train or 300
    else:
        scenario = NnScenario()
        depth = cfg.depth or 5
        specs = nn_learner_specs((depth, depth), _opt_config(cfg.restarts), SINGLE_RESTART)
        n_train = cfg.n_train or (300 if cfg.scale == "paper" else 100)
    rows = export_curves(
        scenario, specs, x_new=x_new, grid_points=cfg.grid_points, seed=cfg.seed, n_train=n_train
    )
    return emit_curves(rows, cfg.out)


def _run_toy_curves(cfg: RunConfig) -> str:
    gen = RngStream(cfg.seed, 0).generator()
    sample = GaussianToySample.from_data(cfg.theta + gen.standard_normal(cfg.n))
    half_conf = 4.0 / np.sqrt(sample.n)
    half_pred = 4.0 * np.sqrt(1.0 + 1.0 / sample.n)
    rows = []
    for theta in np.linspace(sample.ybar - half_conf, sample.ybar + half_conf, cfg.grid_points):
        rows.append(("confidence-curve", float(theta), confidence_curve(sample, theta)))
    for y in np.linspace(sample.ybar - half_pred, sample.ybar + half_pred, cfg.grid_points):
        rows.append(("predictive-curve", float(y), predictive_curve_toy(sample, y)))
    return emit_curves(rows, cfg.out)


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
        if cfg.command == "verify":
            results = run_verify(cfg.seed if cfg.seed is not None else 0)
            for name, ok, detail in results:
                print(f"{name}: {'PASS' if ok else 'FAIL'} ({detail})")
            return 0 if all(ok for _, ok, _ in results) else 1
        runners = {
            "table1": _run_table1,
            "table2": _run_table2,
            "table3": _run_table3,
            "curves": _run_curves,
            "toy-curves": _run_toy_curves,
        }
        text = runners[cfg.command](cfg)
        if cfg.out is None:
            sys.stdout.write(text)
        return 0
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
