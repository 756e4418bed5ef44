"""Command-line front end.

Commands::

    table1      linear coverage study (paper scale by default)
    table2      parameter-error study of the true-shape network
    table3      neural-network coverage study (desk scale by default)
    curves      predictive-curve export for one scenario and test point
    toy-curves  analytic Gaussian confidence/predictive curves
    verify      run the built-in verification suites

Three tables each hold one decision: ``FLAGS`` each flag's type and
default, ``COMMAND_FLAGS`` the flags each command accepts, and ``SIZES``
each command's default scale and its training size, repetitions and deep
depths per ``--scale``. ``parse_config`` resolves a run from them: flags
override an optional ``--config`` file (flat ``key=value`` lines, ``#``
comments, keys named and typed as the command's flags), which overrides
the ``FLAGS`` defaults; after the checks, ``SIZES`` fills the sizes still
unset. Every data-producing command requires ``--seed``; outputs are then
byte deterministic. Exit codes: 0 success, 1 verification or write
failure, 2 usage error, an input the method cannot handle (any
``ValueError``), a size numpy cannot allocate (``MemoryError``) or a
training slice that failed in its forked child (``RuntimeError``).
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .emit import emit_curves, emit_param_mse, emit_results
from .gaussian_toy import GaussianToySample, confidence_curve, predictive_curve_toy
from .mlp import OPT_MSE, TrainerConfig
from .quantiles import check_two_sided_alpha
from .rng import RngStream
from .scenarios import LinearScenario, NnScenario
from .studies import (
    X_NEW_MODES,
    export_curves,
    linear_learner_specs,
    nn_learner_specs,
    run_param_mse_study,
    run_table_linear,
    run_table_nn,
)
from .verify import run_verify

# flag -> (argparse keywords, default). Each flag's type and default live only here.
FLAGS = {
    "seed": ({"type": int}, None),
    "out": ({"type": str}, None),
    "format": ({"choices": ("csv", "json")}, "csv"),
    "scale": ({"choices": ("desk", "paper")}, None),
    "alpha": ({"type": float}, 0.05),
    "n-train": ({"type": int}, None),
    "reps": ({"type": int}, None),
    "depth": ({"type": int}, None),
    "restarts": ({"type": int}, OPT_MSE.restarts),
    "cov-shift-scale": ({"type": float}, LinearScenario.cov_shift_scale),
    "scenario": ({"choices": ("linear", "nn")}, "linear"),
    "x-new": ({"type": str}, "sample-mean"),
    "grid-points": ({"type": int}, 400),
    "n": ({"type": int}, 5),
    "theta": ({"type": float}, 1.35),
}

# The flags each command's runner reads; each is also a config-file key.
COMMAND_FLAGS = {
    "table1": ("seed", "out", "format", "scale", "alpha", "n-train", "reps", "cov-shift-scale"),
    "table2": ("seed", "out", "format", "scale", "n-train", "reps", "restarts"),
    "table3": ("seed", "out", "format", "scale", "alpha", "n-train", "reps", "depth", "restarts"),
    "curves": (
        "seed", "out", "scale", "n-train", "depth", "restarts", "scenario", "x-new", "grid-points",
    ),
    "toy-curves": ("seed", "out", "grid-points", "n", "theta"),
    "verify": ("seed",),
}

# command -> (scale without --scale, {scale: (n-train, reps, deep depths)}). --n-train,
# --reps and --depth override these one by one; --depth sets both deep depths.
SIZES = {
    "table1": ("paper", {"desk": (100, 50, None), "paper": (300, 200, None)}),
    "table2": ("paper", {"desk": (120, 3, None), "paper": (300, 10, None)}),
    "table3": ("desk", {"desk": (100, 5, (5, 5)), "paper": (300, 10, (20, 100))}),
    "curves": ("paper", {"desk": (100, None, (5, 5)), "paper": (300, None, (5, 5))}),
}

class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> tuple[_Parser, dict[str, _Parser]]:
    parser = _Parser(prog="predcurves")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    commands = {}
    for name, flags in COMMAND_FLAGS.items():
        p = commands[name] = sub.add_parser(name, allow_abbrev=False)
        p.add_argument("--config", type=str, default=None)
        for flag in flags:
            p.add_argument(f"--{flag}", default=None, **FLAGS[flag][0])
    return parser, commands


def _read_config_file(path: str, command: str, parser: _Parser) -> dict:
    """Config-file values by attribute name, parsed by the command's own subparser."""
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
        if key not in COMMAND_FLAGS[command]:
            raise UsageError(f"{path}:{lineno}: unknown key {key!r} for {command}")
        field_name = key.replace("-", "_")
        try:
            values[field_name] = getattr(parser.parse_args([f"--{key}={value.strip()}"]), field_name)
        except UsageError:
            raise UsageError(f"{path}:{lineno}: malformed value for {key!r}")
    return values


def parse_config(argv: list[str]) -> argparse.Namespace:
    """Resolve a run: flags over config-file values over ``FLAGS`` defaults, then ``SIZES``."""
    parser, commands = _build_parser()
    args = parser.parse_args(argv)
    given = {}
    if args.config:
        given = _read_config_file(args.config, args.command, commands[args.command])
    given.update((name, value) for name, value in vars(args).items() if value is not None)
    defaults = {flag.replace("-", "_"): default for flag, (_, default) in FLAGS.items()}
    cfg = argparse.Namespace(**{**defaults, **given})
    if cfg.command != "verify" and cfg.seed is None:
        raise UsageError(f"{cfg.command} requires --seed")
    if cfg.seed is not None and not 0 <= cfg.seed < 2**64:
        raise UsageError("--seed must be an unsigned 64-bit integer")
    try:
        check_two_sided_alpha(cfg.alpha)
    except ValueError as exc:
        raise UsageError(f"--{exc}")
    if not 0.0 < cfg.cov_shift_scale < np.inf:
        raise UsageError(f"--cov-shift-scale must be positive and finite, got {cfg.cov_shift_scale}")
    for flag in ("n-train", "reps", "depth", "restarts", "n"):
        value = getattr(cfg, flag.replace("-", "_"))
        if value is not None and value < 1:
            raise UsageError(f"--{flag} must be positive")
    if cfg.grid_points < 2:
        raise UsageError("--grid-points must be at least 2")
    cfg.x_new = _parse_x_new(cfg.x_new)
    if cfg.command == "curves" and cfg.scenario == "linear":
        if {"scale", "depth", "restarts"} & given.keys():
            raise UsageError("--scale, --depth and --restarts apply to --scenario nn only")
    if cfg.command in SIZES:
        default_scale, sizes = SIZES[cfg.command]
        cfg.scale = cfg.scale or default_scale
        n_train, reps, depths = sizes[cfg.scale]
        cfg.n_train, cfg.reps = cfg.n_train or n_train, cfg.reps or reps
        cfg.deep_depths = (cfg.depth, cfg.depth) if cfg.depth else depths
    return cfg


def _parse_x_new(text: str):
    if text in X_NEW_MODES:
        return text
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError:
        raise UsageError(
            f"--x-new must be one of {X_NEW_MODES} or comma-separated floats, got {text!r}"
        )


def _check_out(path: str) -> None:
    """Refuse an ``--out`` that is not a file name in a writable directory, before any study runs."""
    directory = os.path.dirname(os.path.abspath(path))
    if (
        not os.path.basename(path)
        or os.path.isdir(path)
        or not (os.path.isdir(directory) and os.access(directory, os.W_OK))
    ):
        raise OSError(f"cannot write {path}: not a file name in a writable directory")


def _run_table1(cfg: argparse.Namespace) -> str:
    scenario = LinearScenario(cov_shift_scale=cfg.cov_shift_scale)
    rows = run_table_linear(
        cfg.seed, alpha=cfg.alpha, n_train=cfg.n_train, reps=cfg.reps, scenario=scenario
    )
    return emit_results(rows, cfg.format, cfg.out)


def _run_table2(cfg: argparse.Namespace) -> str:
    mse = run_param_mse_study(
        cfg.seed, n_train=cfg.n_train, reps=cfg.reps, opt_config=TrainerConfig(cfg.restarts)
    )
    return emit_param_mse(mse, cfg.format, cfg.out)


def _run_table3(cfg: argparse.Namespace) -> str:
    if cfg.scale == "paper":
        print(
            "warning: paper-scale table3 fits deep networks for every leave-one-out fold; "
            "expect a long run",
            file=sys.stderr,
        )
    rows = run_table_nn(
        cfg.seed, alpha=cfg.alpha, n_train=cfg.n_train, reps=cfg.reps, deep_depths=cfg.deep_depths,
        opt_config=TrainerConfig(cfg.restarts),
    )
    return emit_results(rows, cfg.format, cfg.out)


def _run_curves(cfg: argparse.Namespace) -> str:
    if cfg.scenario == "linear":
        scenario, specs = LinearScenario(), linear_learner_specs()
    else:
        scenario = NnScenario()
        specs = nn_learner_specs(cfg.deep_depths, TrainerConfig(cfg.restarts))
    rows = export_curves(
        scenario, specs, x_new=cfg.x_new, grid_points=cfg.grid_points, seed=cfg.seed,
        n_train=cfg.n_train,
    )
    return emit_curves(rows, cfg.out)


def _run_toy_curves(cfg: argparse.Namespace) -> str:
    gen = RngStream(cfg.seed, 0).generator()
    sample = GaussianToySample.from_data(cfg.theta + gen.standard_normal(cfg.n))
    half_conf = 4.0 / np.sqrt(sample.n)
    half_pred = 4.0 * np.sqrt(1.0 + 1.0 / sample.n)
    thetas = np.linspace(sample.ybar - half_conf, sample.ybar + half_conf, cfg.grid_points)
    ys = np.linspace(sample.ybar - half_pred, sample.ybar + half_pred, cfg.grid_points)
    rows = [("confidence-curve", *row) for row in zip(thetas, confidence_curve(sample, thetas))]
    rows += [("predictive-curve", *row) for row in zip(ys, predictive_curve_toy(sample, ys))]
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
        if cfg.out is not None:
            _check_out(cfg.out)
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
    except (UsageError, ValueError, MemoryError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
