"""Result serialization: fixed-layout CSV and JSON records."""

from __future__ import annotations

import json
from dataclasses import asdict, fields

import numpy as np

from .studies import PARAM_NAMES, MonteCarloReport

RESULTS_FIELDS = tuple(f.name for f in fields(MonteCarloReport))


def _write(text: str, path: str | None) -> str:
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def _emit_records(records: list[dict], header: tuple[str, ...], fmt: str, path: str | None) -> str:
    """Records as CSV under ``header`` (floats at 6 decimals) or as a JSON list."""
    if fmt == "csv":
        lines = [",".join(header)]
        for record in records:
            cells = (f"{v:.6f}" if isinstance(v, float) else str(v) for v in record.values())
            lines.append(",".join(cells))
        return _write("\n".join(lines) + "\n", path)
    if fmt == "json":
        return _write(json.dumps(records, indent=2) + "\n", path)
    raise ValueError(f"unknown format {fmt!r}")


def emit_results(rows: list[MonteCarloReport], fmt: str, path: str | None) -> str:
    return _emit_records([asdict(row) for row in rows], RESULTS_FIELDS, fmt, path)


def emit_param_mse(mse: dict, fmt: str, path: str | None) -> str:
    records = [
        {"estimator": est, "parameter": name, "mse": float(value)}
        for est in sorted(mse)
        for name, value in zip(PARAM_NAMES, mse[est])
    ]
    return _emit_records(records, ("estimator", "parameter", "mse"), fmt, path)


def emit_curves(curves: list[tuple[str, np.ndarray, np.ndarray]], path: str | None) -> str:
    """Curve CSV ``learner,y,pv`` from ``(label, ys, pv)`` blocks of equal-length 1-D arrays.

    Rows are ordered by label, then by y; rows of equal label and y keep
    their input order (a label's blocks are joined in input order, then
    stably sorted), exactly as a stable sort of ``(label, y, pv)`` rows by
    ``(label, y)`` orders them. Every value is written as ``%.12g``, all in
    one format call. A block whose ``ys`` and ``pv`` differ in length
    raises ``ValueError``, and so does a non-finite y: NaN has no place in
    a y order. Returns the text.
    """
    blocks: dict[str, list[tuple[np.ndarray, np.ndarray]]] = {}
    for label, ys, pv in curves:
        ys, pv = np.asarray(ys, dtype=float), np.asarray(pv, dtype=float)
        if ys.ndim != 1 or ys.shape != pv.shape:
            raise ValueError(f"curve {label!r}: ys and pv must be 1-D of one length")
        if not np.all(np.isfinite(ys)):
            raise ValueError(f"curve {label!r}: ys must be finite")
        blocks.setdefault(label, []).append((ys, pv))
    # one format call for the whole file: formatting each label apart and
    # joining the strings fragments the heap, and peak RSS grew over
    # thousands of calls
    template, cells = ["learner,y,pv\n"], []
    for label in sorted(blocks):
        ys, pv = (np.concatenate(arrays) for arrays in zip(*blocks[label]))
        order = np.argsort(ys, kind="stable")
        template.append((label.replace("%", "%%") + ",%.12g,%.12g\n") * ys.size)
        cells += np.column_stack([ys[order], pv[order]]).ravel().tolist()
    return _write("".join(template) % tuple(cells), path)
