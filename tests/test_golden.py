"""Golden fingerprint: a byte manifest of 403 runs and five reference CLI runs.

``byte_manifest.json`` holds the whole-output md5 of each run that
trains no network: a 400-run seed sweep (see ``_sweep``) and three
paper-scale ``table1`` runs. An entry changes only with a byte change
declared in CHANGES.md.

The five reference runs train networks or, for ``verify``, print a
gradient-check residue. A trainer change exact in real arithmetic may
still move a fitted weight's last bit, so each stored value carries the
tolerance it is held to. ``REFERENCE_MD5`` records each run's md5; only
the network curves' is asserted, across slice counts and processes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from predcurves import cli, mlp
from predcurves.cli import main
from predcurves.studies import X_NEW_MODES

REFERENCE_MD5 = {
    "table3 --seed 1 --reps 1": "1f2b25c97a3a4a1daf1fdb6dc44132d5",
    "verify --seed 0": "a03d71ab9937163dc0824d2e20338523",
    "table2 --seed 6 --scale desk": "9fafbfc31a5713de21eaa76527462b16",
    "table2 --seed 6 --scale desk --format json": "6f61c58ff60b7856b2ff76fc8bf34fa1",
    "curves --seed 8 --scenario nn --n-train 100 --x-new sample-mean": "17a91a471ba51f4f507f83359366ef56",
}

# Tables print floats at 6 decimals. 1e-5 lets a last-bit move in the
# trainer cross a rounding boundary of the last printed digit, no more.
TABLE_TOL = 1e-5

TABLE3 = """\
scenario,learner,estimator,alpha,n_train,reps,test_points,coverage,avg_width,seed
nn-iid,mu0,opt-mse,0.050000,100,1,20,1.000000,4.071333,1
nn-iid,mu0,single,0.050000,100,1,20,1.000000,4.369652,1
nn-iid,mu1,single,0.050000,100,1,20,0.950000,3.954351,1
nn-iid,mu2,single,0.050000,100,1,20,1.000000,4.485528,1
nn-iid,mu3,single,0.050000,100,1,20,1.000000,4.403320,1
nn-iid,mu4,ols,0.050000,100,1,20,0.900000,4.155171,1
nn-noniid,mu0,opt-mse,0.050000,100,1,20,0.950000,4.194341,1
nn-noniid,mu0,single,0.050000,100,1,20,1.000000,5.137103,1
nn-noniid,mu1,single,0.050000,100,1,20,0.900000,4.050332,1
nn-noniid,mu2,single,0.050000,100,1,20,0.900000,5.385632,1
nn-noniid,mu3,single,0.050000,100,1,20,0.950000,5.333847,1
nn-noniid,mu4,ols,0.050000,100,1,20,0.750000,4.155171,1
"""

TABLE2 = """\
estimator,parameter,mse
opt-mse,l1_00,0.095349
opt-mse,l1_01,0.125693
opt-mse,l1_02,0.226163
opt-mse,l1_10,0.462038
opt-mse,l1_11,0.350603
opt-mse,l1_12,0.379745
opt-mse,l2_0,0.215153
opt-mse,l2_1,3.944864
single,l1_00,0.019499
single,l1_01,1.645462
single,l1_02,0.405553
single,l1_10,0.353490
single,l1_11,0.662561
single,l1_12,0.736325
single,l2_0,0.857434
single,l2_1,0.030335
"""

# Network curves of ``curves --scenario nn``: per label, the row count and
# the sums of y, pv and y * pv. Values print at 12 significant digits, so a
# last-bit move in a score moves each y by at most about 1e-12 relative and
# a sum over 700 rows by well under CURVE_TOL; pv only changes if the
# scores reorder.
CURVE_TOL = 1e-8
NN_CURVES = {
    "mu0-opt-mse": (700, 128.8737110874527, 240.06, 29.25281994562236),
    "mu0-single": (700, 259.2119568836624, 261.14, 56.159369023201),
    "mu1": (700, 87.61990448683834, 251.64, 41.729868645733454),
    "mu2": (700, 380.67188051350627, 253.02, 58.40894164490925),
    "mu3": (700, -90.97078750242235, 227.32, 33.75245385593323),
}
# md5 of the header plus the rows of the other labels (least squares, oracle).
NN_CURVES_REST_MD5 = "15c452e0bd995bc92e3c3b469fab73ea"

# ``verify``: every line but the gradient check is byte for byte. The
# gradient check prints the rounding residue of central differences, which
# a last-bit move in the loss shifts by a fraction of itself.
VERIFY = """\
oracle-equivalence: PASS (max |closed-form - refit| = 1.55e-15)
prop1-umbrella: PASS (floor 0.740; mu0=0.910, mu3=0.875, adversarial=0.900)
gradient-check: PASS (max relative error = 8.14e-09 over 30 instances)
hat-trace: PASS (max |trace - p| = 1.78e-15)
toy-consistency: PASS (sup |conformal - analytic| = 0.025)
"""
GRADIENT_CHECK_REL_TOL = 0.5


def _run(command: str, capsys) -> str:
    assert main(command.split()) == 0
    return capsys.readouterr().out


def _md5(text: str) -> str:
    return hashlib.md5(text.encode("utf-8")).hexdigest()


def _compare_table(text: str, reference: str, float_column: str, is_network) -> None:
    lines, ref_lines = text.splitlines(), reference.splitlines()
    assert len(lines) == len(ref_lines) and lines[0] == ref_lines[0]
    header = ref_lines[0].split(",")
    col = header.index(float_column)
    for line, ref_line in zip(lines[1:], ref_lines[1:]):
        cells, ref_cells = line.split(","), ref_line.split(",")
        if not is_network(dict(zip(header, ref_cells))):
            assert line == ref_line
            continue
        assert cells[:col] + cells[col + 1 :] == ref_cells[:col] + ref_cells[col + 1 :]
        assert float(cells[col]) == pytest.approx(float(ref_cells[col]), abs=TABLE_TOL)


def test_table3_desk_repetition(capsys):
    text = _run("table3 --seed 1 --reps 1", capsys)
    _compare_table(text, TABLE3, "avg_width", lambda row: row["estimator"] != "ols")


def test_table2_desk(capsys):
    text = _run("table2 --seed 6 --scale desk", capsys)
    _compare_table(text, TABLE2, "mse", lambda row: True)


def test_table2_desk_json(capsys):
    records = json.loads(_run("table2 --seed 6 --scale desk --format json", capsys))
    header, *ref_lines = TABLE2.splitlines()
    assert len(records) == len(ref_lines)
    for record, ref_line in zip(records, ref_lines):
        assert list(record) == header.split(",")
        estimator, parameter, mse = ref_line.split(",")
        assert (record["estimator"], record["parameter"]) == (estimator, parameter)
        assert record["mse"] == pytest.approx(float(mse), abs=TABLE_TOL)


def _compare_nn_curves(text: str) -> None:
    lines = text.splitlines()
    rest = [lines[0]]
    rows: dict[str, list[tuple[float, float]]] = {}
    for line in lines[1:]:
        label, y, pv = line.split(",")
        if label in NN_CURVES:
            rows.setdefault(label, []).append((float(y), float(pv)))
        else:
            rest.append(line)
    assert _md5("\n".join(rest) + "\n") == NN_CURVES_REST_MD5
    assert set(rows) == set(NN_CURVES)
    for label, (count, sum_y, sum_pv, sum_ypv) in NN_CURVES.items():
        got = rows[label]
        assert len(got) == count
        assert math.fsum(y for y, _ in got) == pytest.approx(sum_y, abs=CURVE_TOL)
        assert math.fsum(pv for _, pv in got) == pytest.approx(sum_pv, abs=CURVE_TOL)
        assert math.fsum(y * pv for y, pv in got) == pytest.approx(sum_ypv, abs=CURVE_TOL)


def test_nn_curves_bytes_hold_across_processes_and_blas_threads(capsys, monkeypatch):
    # the trainer's networks never interact, so neither the number of
    # slices the batch is split into nor the BLAS thread count may move a
    # byte; the subprocess runs beside the in-process runs to save time.
    # tolerances first, so a declared last-bit change still shows if it is within them
    command = "curves --seed 8 --scenario nn --n-train 100 --x-new sample-mean"
    src = str(Path(mlp.__file__).resolve().parents[1])
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "PYTHONPATH": src}
    with subprocess.Popen(
        [sys.executable, "-m", "predcurves.cli", *command.split()], stdout=subprocess.PIPE, env=env
    ) as proc:
        for slices in (1, 2):
            monkeypatch.setattr(mlp, "_slice_count", lambda batch, work: min(batch, slices))
            text = _run(command, capsys)
            if slices == 1:
                _compare_nn_curves(text)
            assert _md5(text) == REFERENCE_MD5[command], f"{slices} slices"
        out = proc.communicate(timeout=300)[0]
    assert proc.returncode == 0
    assert hashlib.md5(out).hexdigest() == REFERENCE_MD5[command]


def test_verify(capsys):
    lines, ref_lines = _run("verify --seed 0", capsys).splitlines(), VERIFY.splitlines()
    assert len(lines) == len(ref_lines)
    for line, ref_line in zip(lines, ref_lines):
        if not ref_line.startswith("gradient-check:"):
            assert line == ref_line
            continue
        assert line.startswith("gradient-check: PASS ") and line.endswith(" over 30 instances)")
        value = float(line.split("= ")[1].split()[0])
        ref_value = float(ref_line.split("= ")[1].split()[0])
        assert value == pytest.approx(ref_value, rel=GRADIENT_CHECK_REL_TOL)


MANIFEST = Path(__file__).with_name("byte_manifest.json")


def _sweep() -> list[str]:
    """The manifest's runs in order: 64 seeds per closed-form command, 16 ``verify``, 3 ``table1``."""
    runs = []
    for seed in range(64):
        runs.append(f"table1 --scale desk --seed {seed}")
        runs.append(f"table1 --scale desk --seed {seed} --alpha 0.025 --cov-shift-scale 1.0")
        runs += [f"curves --scenario linear --x-new {mode} --seed {seed}" for mode in X_NEW_MODES]
        runs.append(f"toy-curves --seed {seed}")
    runs += [f"verify --seed {seed}" for seed in range(16)]
    paper = "table1 --seed 8"
    return runs + [paper, f"{paper} --format json", f"{paper} --alpha 0.025 --cov-shift-scale 1.0"]


def _manifest_text(command: str, capsys) -> str:
    """Whole stdout of one run; for ``verify``, without the gradient check's residue (see VERIFY)."""
    text = _run(command, capsys)
    if command.startswith("verify"):
        text = re.sub(r"^(gradient-check: \w+) \(.*\)$", r"\1", text, flags=re.MULTILINE)
    return text


def test_byte_manifest(capsys):
    manifest = json.loads(MANIFEST.read_text())
    assert list(manifest) == _sweep()
    differ = [cmd for cmd, md5 in manifest.items() if _md5(_manifest_text(cmd, capsys)) != md5]
    assert not differ, f"{len(differ)} of {len(manifest)} runs differ: {differ}"


def test_byte_manifest_holds_each_run_once():
    # two spellings of one run (flags reordered, a default spelled out) resolve alike
    seen: dict[str, str] = {}
    for command in json.loads(MANIFEST.read_text()):
        settings = repr(sorted(vars(cli.parse_config(command.split())).items()))
        assert seen.setdefault(settings, command) == command
