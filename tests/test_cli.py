import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from predcurves import cli, mlp
from predcurves.cli import UsageError, main, parse_config
from predcurves.emit import emit_curves, emit_results
from predcurves.mlp import MlpLearner
from predcurves.scenarios import LinearScenario
from predcurves.studies import MonteCarloReport, run_table_linear


def _row(**overrides):
    base = dict(
        scenario="linear-iid",
        learner="mu0",
        estimator="ols",
        alpha=0.05,
        n_train=300,
        reps=200,
        test_points=1,
        coverage=0.985,
        avg_width=4.42,
        seed=42,
    )
    base.update(overrides)
    return MonteCarloReport(**base)


class TestEmitResults:
    def test_header_only_for_empty(self):
        text = emit_results([], "csv", None)
        assert text == (
            "scenario,learner,estimator,alpha,n_train,reps,test_points,"
            "coverage,avg_width,seed\n"
        )

    def test_csv_row_shape(self):
        text = emit_results([_row()], "csv", None)
        line = text.splitlines()[1]
        assert line == "linear-iid,mu0,ols,0.050000,300,200,1,0.985000,4.420000,42"

    def test_csv_uses_lf(self):
        text = emit_results([_row(), _row(learner="mu1")], "csv", None)
        assert "\r" not in text
        assert text.endswith("\n")

    def test_json_round_trips(self):
        rows = [_row(), _row(scenario="linear-noniid", coverage=1 / 3, avg_width=np.pi)]
        records = json.loads(emit_results(rows, "json", None))
        assert [MonteCarloReport(**record) for record in records] == rows

    def test_file_output(self, tmp_path):
        path = tmp_path / "out.csv"
        text = emit_results([_row()], "csv", str(path))
        assert path.read_bytes().decode("utf-8") == text


class TestEmitCurves:
    def test_sorted_and_shaped(self):
        rows = [("mu1", 1.0, 0.5), ("mu0", 2.0, 0.25), ("mu0", 1.0, 0.125)]
        text = emit_curves(rows, None)
        lines = text.splitlines()
        assert lines[0] == "learner,y,pv"
        assert lines[1].startswith("mu0,1")
        assert lines[2].startswith("mu0,2")
        assert lines[3].startswith("mu1,1")


class TestParseConfig:
    def test_table1_defaults(self):
        cfg = parse_config(["table1", "--seed", "42"])
        assert cfg.seed == 42
        assert cfg.scale == "paper"
        assert cfg.alpha == 0.05
        assert cfg.format == "csv"

    def test_table3_defaults_desk(self):
        cfg = parse_config(["table3", "--seed", "7"])
        assert cfg.scale == "desk"

    def test_missing_seed_rejected(self):
        with pytest.raises(UsageError, match="requires --seed"):
            parse_config(["table1"])

    def test_alpha_domain(self):
        with pytest.raises(UsageError, match="alpha"):
            parse_config(["table1", "--seed", "1", "--alpha", "1.5"])

    def test_alpha_below_float_resolution_rejected(self):
        # at alpha <= 2**-53 the upper level 1 - alpha / 2 rounds to 1
        with pytest.raises(UsageError, match=r"--alpha .* got 1e-300"):
            parse_config(["table1", "--seed", "1", "--alpha", "1e-300"])
        with pytest.raises(UsageError, match="--alpha"):
            parse_config(["table1", "--seed", "1", "--alpha", str(2.0**-53)])
        assert parse_config(["table1", "--seed", "1", "--alpha", str(2.0**-52)]).alpha == 2.0**-52

    def test_unknown_flag_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["table1", "--seed", "1", "--frobnicate", "2"])

    def test_unknown_command_rejected(self):
        with pytest.raises(UsageError):
            parse_config(["table9", "--seed", "1"])

    def test_config_file_precedence(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=5\nalpha=0.2  # comment\nreps=7\n")
        cfg = parse_config(["table1", "--config", str(path), "--alpha", "0.1"])
        assert cfg.seed == 5  # from file
        assert cfg.alpha == 0.1  # flag wins
        assert cfg.reps == 7

    def test_cov_shift_scale_flag_and_key(self, tmp_path):
        assert parse_config(["table1", "--seed", "1"]).cov_shift_scale == 0.5
        path = tmp_path / "run.cfg"
        path.write_text("cov-shift-scale=1.0\n")
        assert parse_config(["table1", "--seed", "1", "--config", str(path)]).cov_shift_scale == 1.0
        for bad in ("0", "inf"):
            with pytest.raises(UsageError, match="cov-shift-scale"):
                parse_config(["table1", "--seed", "1", "--cov-shift-scale", bad])

    def test_config_file_unknown_key(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("wibble=3\n")
        with pytest.raises(UsageError, match="unknown key"):
            parse_config(["table1", "--seed", "1", "--config", str(path)])

    def test_config_file_malformed_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("alpha=abc\n")
        with pytest.raises(UsageError, match="malformed"):
            parse_config(["table1", "--seed", "1", "--config", str(path)])


class TestFlagsTheCommandDoesNotRead:
    def test_curves_rejects_format(self, capsys):
        assert main(["curves", "--seed", "1", "--format", "json"]) == 2
        assert capsys.readouterr().out == ""

    def test_verify_rejects_out(self, tmp_path, capsys):
        path = tmp_path / "verify.txt"
        assert main(["verify", "--seed", "0", "--out", str(path)]) == 2
        assert not path.exists()

    def test_config_keys_are_the_command_flags(self, tmp_path, capsys):
        path = tmp_path / "run.cfg"
        path.write_text("cov-shift-scale=1.0\ndepth=7\n")
        assert main(["curves", "--seed", "8", "--scenario", "linear", "--config", str(path)]) == 2
        assert "unknown key 'cov-shift-scale' for curves" in capsys.readouterr().err
        path.write_text("n=7\ntheta=0.5\n")
        cfg = parse_config(["toy-curves", "--seed", "1", "--config", str(path)])
        assert (cfg.n, cfg.theta) == (7, 0.5)
        with pytest.raises(UsageError, match="unknown key 'n' for table1"):
            parse_config(["table1", "--seed", "1", "--config", str(path)])
        path.write_text("scenario=quadratic\n")
        with pytest.raises(UsageError, match="malformed value for 'scenario'"):
            parse_config(["curves", "--seed", "1", "--config", str(path)])

    @pytest.mark.parametrize("flag", ["--depth", "--restarts", "--scale"])
    def test_linear_curves_reject_network_flags(self, flag, capsys):
        value = "paper" if flag == "--scale" else "7"
        assert main(["curves", "--seed", "8", "--scenario", "linear", flag, value]) == 2
        assert "apply to --scenario nn only" in capsys.readouterr().err


class TestMainExitCodes:
    def test_usage_error_exits_2(self, capsys):
        assert main(["table1"]) == 2
        assert "error" in capsys.readouterr().err

    def test_bad_alpha_exits_2(self, capsys):
        assert main(["table1", "--seed", "1", "--alpha", "2"]) == 2

    @pytest.mark.parametrize("command", ["table1", "table3"])
    def test_tiny_alpha_exits_2_before_the_study(self, monkeypatch, capsys, command):
        calls = []
        for name in ("run_table_linear", "run_table_nn"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
        assert main([command, "--seed", "1", "--n-train", "4", "--reps", "1", "--alpha", "1e-300"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "1e-300" in err
        assert calls == []

    def test_memory_error_exits_2(self, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 745. GiB for an array")

        monkeypatch.setattr(cli, "run_table_linear", refuse)
        assert main(["table1", "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: Unable to allocate 745. GiB for an array\n"
        assert captured.out == ""

    def test_failed_training_slice_exits_2(self, monkeypatch, capsys):
        parent, train_chunk = os.getpid(), mlp._train_chunk

        def refuse_in_child(*args):
            if os.getpid() != parent:
                raise MemoryError("Unable to allocate 745. GiB for an array")
            return train_chunk(*args)

        monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: min(batch, 2))
        monkeypatch.setattr(mlp, "_train_chunk", refuse_in_child)
        assert main("table3 --seed 1 --reps 1 --n-train 10 --depth 2 --restarts 1".split()) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: training slice 1 (networks ")
        assert captured.err.endswith(" with exit code 1\n") and captured.out == ""

    def test_unwritable_path_exits_1(self, capsys):
        code = main(
            ["table1", "--seed", "1", "--n-train", "40", "--reps", "2",
             "--out", "/nonexistent-dir/x.csv"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "command", ["table1 --reps 200", "table2", "table3 --scale paper", "curves --scenario nn"]
    )
    def test_unwritable_path_refused_before_the_study(self, monkeypatch, tmp_path, capsys, command):
        calls = []
        for name in ("run_table_linear", "run_param_mse_study", "run_table_nn", "export_curves"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
        out = tmp_path / "missing" / "t.csv"
        for path in (out, tmp_path, "", f"{tmp_path / 'newdir'}/"):
            assert main([*command.split(), "--seed", "1", "--out", str(path)]) == 1
            assert capsys.readouterr().err.startswith("error: ")
        assert calls == []
        assert not out.parent.exists()

    def test_verify_runs_clean(self, capsys):
        assert main(["verify", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 5
        assert "FAIL" not in out

    def test_verify_detects_corrupted_quantile_rule(self, capsys, monkeypatch):
        # narrow every interval by several ranks; the coverage floor must trip
        import predcurves.conformal as conformal

        original = conformal.order_stat_index

        def corrupted(n, alpha):
            k = original(n, alpha)
            return min(n, max(1, k + (8 if alpha < 0.5 else -8)))

        monkeypatch.setattr(conformal, "order_stat_index", corrupted)
        assert main(["verify", "--seed", "0"]) == 1
        assert "FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["curves", "--x-new", "1,2,3"], "must be an (m, 2) matrix"),
            (["curves", "--x-new", "nan,1"], "test rows must be finite"),
            (["table3", "--depth", "1"], "at least 2 layers"),
            (["curves", "--scenario", "nn", "--depth", "1"], "at least 2 layers"),
            (["table1", "--n-train", "2"], "at least 3 training rows"),
            (["table1", "--n-train", "3"], "leverage-one point"),
            (["toy-curves", "--theta", "nan"], "sample mean must be finite"),
            (["toy-curves", "--theta", "inf"], "sample mean must be finite"),
            (["toy-curves", "--theta", "1e308"], "sample mean must be finite"),
            (["toy-curves", "--grid-points", "1"], "--grid-points must be at least 2"),
            (["curves", "--grid-points", "1"], "--grid-points must be at least 2"),
            (["table1", "--rep", "3"], "unrecognized arguments"),  # not read as --reps
            (["table1", "--n", "3"], "unrecognized arguments"),  # not read as --n-train
        ],
        ids=[
            "x-new-dim", "x-new-nan", "table3-depth", "curves-depth", "n-train-2", "leverage-one",
            "theta-nan", "theta-inf", "theta-1e308", "toy-grid-points-1", "curves-grid-points-1",
            "abbrev-rep", "abbrev-n",
        ],
    )
    def test_inputs_the_method_cannot_handle_exit_2(self, capsys, argv, message):
        assert main([*argv, "--seed", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and message in captured.err

    def test_verify_repeatable(self, capsys):
        assert main(["verify", "--seed", "3"]) == 0
        first = capsys.readouterr().out
        assert main(["verify", "--seed", "3"]) == 0
        assert capsys.readouterr().out == first


# Each run's training size, repetitions and deep depths, as in the README ``--scale`` table.
SCALE_SIZES = [
    ("table1", 300, 200, None),
    ("table1 --scale desk", 100, 50, None),
    ("table1 --scale paper", 300, 200, None),
    ("table2", 300, 10, None),
    ("table2 --scale desk", 120, 3, None),
    ("table2 --scale paper", 300, 10, None),
    ("table3", 100, 5, (5, 5)),
    ("table3 --scale desk", 100, 5, (5, 5)),
    ("table3 --scale paper", 300, 10, (20, 100)),
    ("table3 --scale paper --depth 7 --n-train 9", 9, 10, (7, 7)),
    ("curves --scenario nn", 300, None, (5, 5)),
    ("curves --scenario nn --scale desk", 100, None, (5, 5)),
    ("curves --scenario nn --scale paper", 300, None, (5, 5)),
    ("curves --scenario linear", 300, None, None),
]


class TestScaleSizes:
    @pytest.mark.parametrize(
        "command, n_train, reps, deep_depths", SCALE_SIZES, ids=[case[0] for case in SCALE_SIZES]
    )
    def test_sizes(self, monkeypatch, capsys, command, n_train, reps, deep_depths):
        calls = []

        def stub(*args, **kwargs):
            calls.append((args, kwargs))
            raise ValueError("stub: no study is run")

        for name in ("run_table_linear", "run_param_mse_study", "run_table_nn", "export_curves"):
            monkeypatch.setattr(cli, name, stub)
        assert main([*command.split(), "--seed", "1"]) == 2
        ((args, kwargs),) = calls
        depths = kwargs.get("deep_depths")
        if command.startswith("curves"):  # the depths reach export_curves inside the learner specs
            deep = [s.learner for s in args[1] if isinstance(s.learner, MlpLearner)][-2:]
            depths = tuple(len(learner.architecture.widths) - 1 for learner in deep) or None
        assert (kwargs["n_train"], kwargs.get("reps"), depths) == (n_train, reps, deep_depths)


class TestSmallTableRuns:
    def test_table1_default_scale(self, tmp_path):
        out = tmp_path / "t1_full.csv"
        assert main(["table1", "--seed", "42", "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[3] == "0.050000"  # alpha
            assert cells[4] == "300"  # n_train
            assert cells[5] == "200"  # reps

    def test_table1_small_csv(self, tmp_path, capsys):
        out = tmp_path / "t1.csv"
        code = main(
            ["table1", "--seed", "3", "--n-train", "50", "--reps", "5", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 9  # header + 2 scenarios x 4 learners
        assert lines[0].startswith("scenario,")

    def test_table1_cov_shift_scale(self, tmp_path, capsys):
        args = ["table1", "--seed", "3", "--n-train", "50", "--reps", "5"]
        assert main(args + ["--cov-shift-scale", "1.0"]) == 0
        unit = capsys.readouterr().out
        rows = run_table_linear(3, n_train=50, reps=5, scenario=LinearScenario(cov_shift_scale=1.0))
        assert unit == emit_results(rows, "csv", None)
        assert main(args) == 0
        assert capsys.readouterr().out != unit

    def test_table1_json(self, tmp_path):
        out = tmp_path / "t1.json"
        code = main(
            ["table1", "--seed", "3", "--n-train", "50", "--reps", "5",
             "--format", "json", "--out", str(out)]
        )
        assert code == 0
        rows = json.loads(out.read_text())
        assert len(rows) == 8
        assert set(rows[0]) == {
            "scenario", "learner", "estimator", "alpha", "n_train", "reps",
            "test_points", "coverage", "avg_width", "seed",
        }

    def test_toy_curves(self, tmp_path):
        out = tmp_path / "toy.csv"
        code = main(["toy-curves", "--seed", "1", "--grid-points", "50", "--out", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "learner,y,pv"
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"confidence-curve", "predictive-curve"}

    def test_curves_linear_small(self, tmp_path):
        out = tmp_path / "curves.csv"
        code = main(
            ["curves", "--seed", "2", "--n-train", "40", "--grid-points", "60",
             "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().splitlines()
        labels = {line.split(",")[0] for line in lines[1:]}
        assert labels == {"mu0", "mu1", "mu2", "mu3", "oracle"}
        # per-learner y strictly increasing
        by_label = {}
        for line in lines[1:]:
            label, y, pv = line.split(",")
            by_label.setdefault(label, []).append(float(y))
            assert 0.0 <= float(pv) <= 1.0
        for ys in by_label.values():
            assert all(b > a for a, b in zip(ys, ys[1:]))


# Run in a fresh interpreter: which scipy modules are loaded after importing the CLI,
# and after a closed-form table1 run through main; the table goes to a file.
NO_SCIPY_PROBE = """
import json, sys
import predcurves.cli
def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")
at_import = scipy_modules()
code = predcurves.cli.main(["table1", "--seed", "8", "--scale", "desk", "--out", sys.argv[1]])
print(json.dumps({"import": at_import, "code": code, "table1": scipy_modules()}))
"""


def test_closed_form_commands_load_no_scipy(tmp_path):
    # scipy's import is most of a closed-form command's start-up and ~23 MB of
    # its memory; the package loads it only where a normal CDF is drawn
    src = str(Path(cli.__file__).resolve().parents[1])
    out = tmp_path / "table1.csv"
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_PROBE, str(out)],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == {"import": [], "code": 0, "table1": []}
    assert len(out.read_text().splitlines()) == 9
