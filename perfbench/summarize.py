"""Summarize the runs saved in ``perfbench/out/``: median, quartiles and spread per workload and metric.

    python3 perfbench/summarize.py                 # table
    python3 perfbench/summarize.py --json LABEL    # one trajectory point, as JSON

The spread is the distance between the first and third quartile of a
metric's values over the saved runs (one run per seed), as a share of
their median; a change can only be judged on a metric whose spread is
below its bound in ``BENCHMARK.json``. Metrics without a bound there
(``failed_frac``, ``op_ms_p50``, ``op_ms_p90``) are shown for reading.
"""

from __future__ import annotations

import argparse
import json
import statistics
from collections import defaultdict

from run import OUT_DIR, TABLE, load_spec


def collect(trace: int) -> dict[str, dict[str, list[float]]]:
    """workload -> metric -> values, one per saved run."""
    values: dict[str, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for path in sorted(OUT_DIR.glob(f"result-*-trace{trace}.json")):
        with open(path, encoding="utf-8") as fh:
            result = json.load(fh)
        for name, value in result["metrics"].items():
            if value is not None:
                values[result["workload"]][name].append(value)
    return values


def stats(values: list[float]) -> dict[str, float]:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"runs": len(values), "median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", metavar="LABEL", help="print one trajectory point labelled LABEL")
    args = parser.parse_args(argv)
    spec = load_spec()
    untraced, traced = collect(0), collect(1)
    e2e = {w: {name: stats(v[name]) for name, _ in TABLE if v[name]} for w, v in untraced.items()}
    layers = {w: {m["name"]: statistics.median(v[m["name"]]) for m in spec["per_layer"]} for w, v in traced.items()}
    if args.json:
        print(json.dumps({"label": args.json, "end_to_end": e2e, "per_layer_median": layers}, indent=1))
        return 0
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}  # ungated metrics show "-"
    print(f"{'workload':<16}{'metric':<14}{'runs':>5}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>8}{'bound':>7}")
    for workload, metrics in e2e.items():
        for name, s in metrics.items():
            print(f"{workload:<16}{name:<14}{s['runs']:>5}{s['median']:>12.5g}{s['q1']:>12.5g}{s['q3']:>12.5g}"
                  f"{s['spread']:>8.3f}{bounds.get(name, '-'):>7}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
