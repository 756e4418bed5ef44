"""Result serialization: fixed-layout CSV and JSON records."""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from .studies import PARAM_NAMES, MonteCarloReport

RESULTS_FIELDS = tuple(f.name for f in fields(MonteCarloReport))


def _write(lines: list[str], path: str | None) -> str:
    text = "\n".join(lines) + "\n"
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
        return _write(lines, path)
    if fmt == "json":
        return _write([json.dumps(records, indent=2)], path)
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


def emit_curves(rows: list[tuple[str, float, float]], path: str | None) -> str:
    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    lines = ["learner,y,pv"]
    lines.extend(f"{label},{y:.12g},{pv:.12g}" for label, y, pv in ordered)
    return _write(lines, path)
