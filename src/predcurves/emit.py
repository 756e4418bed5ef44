"""Result serialization: fixed-layout CSV and round-tripping JSON."""

from __future__ import annotations

import json
from dataclasses import asdict, fields

from .studies import MonteCarloReport, ParamMseTable

RESULTS_FIELDS = tuple(f.name for f in fields(MonteCarloReport))
_FLOAT_FIELDS = {"alpha", "coverage", "avg_width"}

CURVES_FIELDS = ("learner", "y", "pv")
PARAM_MSE_FIELDS = ("estimator", "parameter", "mse")


def _write(text: str, path: str | None) -> str:
    if path is not None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    return text


def format_results_csv(rows: list[MonteCarloReport]) -> str:
    lines = [",".join(RESULTS_FIELDS)]
    for row in rows:
        rec = asdict(row)
        cells = [
            f"{rec[f]:.6f}" if f in _FLOAT_FIELDS else str(rec[f]) for f in RESULTS_FIELDS
        ]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def format_results_json(rows: list[MonteCarloReport]) -> str:
    payload = [asdict(row) for row in rows]
    return json.dumps(payload, indent=2) + "\n"


def parse_results_json(text: str) -> list[MonteCarloReport]:
    return [MonteCarloReport(**rec) for rec in json.loads(text)]


def emit_results(rows: list[MonteCarloReport], fmt: str, path: str | None) -> str:
    if fmt == "csv":
        return _write(format_results_csv(rows), path)
    if fmt == "json":
        return _write(format_results_json(rows), path)
    raise ValueError(f"unknown format {fmt!r}")


def format_curves_csv(rows: list[tuple[str, float, float]]) -> str:
    ordered = sorted(rows, key=lambda r: (r[0], r[1]))
    lines = [",".join(CURVES_FIELDS)]
    lines.extend(f"{label},{y:.12g},{pv:.12g}" for label, y, pv in ordered)
    return "\n".join(lines) + "\n"


def emit_curves(rows: list[tuple[str, float, float]], path: str | None) -> str:
    return _write(format_curves_csv(rows), path)


def format_param_mse_csv(table: ParamMseTable) -> str:
    lines = [",".join(PARAM_MSE_FIELDS)]
    for est in sorted(table.mse):
        for name, value in zip(table.param_names, table.mse[est]):
            lines.append(f"{est},{name},{value:.6f}")
    return "\n".join(lines) + "\n"


def format_param_mse_json(table: ParamMseTable) -> str:
    payload = [
        {"estimator": est, "parameter": name, "mse": float(value)}
        for est in sorted(table.mse)
        for name, value in zip(table.param_names, table.mse[est])
    ]
    return json.dumps(payload, indent=2) + "\n"


def emit_param_mse(table: ParamMseTable, fmt: str, path: str | None) -> str:
    if fmt == "csv":
        return _write(format_param_mse_csv(table), path)
    if fmt == "json":
        return _write(format_param_mse_json(table), path)
    raise ValueError(f"unknown format {fmt!r}")
