"""Benchmark of predcurves: four study workloads, end-to-end and per-layer metrics.

Run from the repository root; see ``perfbench/README.md`` for the
workloads, metrics and checks.

    python3 perfbench/run.py                      # every workload, untraced then traced: both tables
    python3 perfbench/run.py --workload ols-coverage --seed 3 --seconds 25 --trace 0

With ``--workload`` the last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``; the table before it shows every
end-to-end metric, gated or not. The whole result, with every op
latency and the run metadata, is also written to ``perfbench/out/``.
Each run starts fresh processes (``worker.py`` and set-up probes) so
that peak RSS and set-up time belong to that workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = HERE / "out"
SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150
# end-to-end metrics printed per workload, with units
TABLE = (("failed_frac", "1"), ("setup_s", "s"), ("ops_per_s", "1/s"), ("op_ms_p50", "ms"),
         ("op_ms_p90", "ms"), ("peak_rss_mb", "MB"))
PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import predcurves.cli; print('ready', flush=True)"


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def setup_seconds() -> float:
    """One set-up: a fresh interpreter until ``predcurves.cli`` is imported and ready."""
    t0 = perf_counter()
    with subprocess.Popen([sys.executable, "-c", PROBE, str(SRC)], stdout=subprocess.PIPE, text=True) as proc:
        ready = proc.stdout.readline().strip() == "ready"
        elapsed = perf_counter() - t0
    if not ready or proc.returncode != 0:
        raise RuntimeError("set-up probe could not import predcurves")
    return elapsed


def run_worker(name: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker for {name} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def p90_ms(latencies: list[float]) -> float | None:
    """90th percentile in ms, or None unless at least 10 samples lie beyond it."""
    if len(latencies) < 2:
        return None
    p90 = statistics.quantiles(latencies, n=10)[-1]
    return 1000.0 * p90 if sum(t > p90 for t in latencies) >= 10 else None


def end_to_end(result: dict, setups: list[float]) -> dict[str, float | None]:
    """The metrics of the table; ``BENCHMARK.json`` gates a subset of them."""
    lat = result["latencies_s"]
    return {
        "failed_frac": result["failed"] / result["attempted"],
        "setup_s": statistics.median(setups),
        "ops_per_s": (result["attempted"] - result["failed"]) / sum(lat),
        "op_ms_p50": 1000.0 * statistics.median(lat),
        "op_ms_p90": p90_ms(lat),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def measure_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    """One run of one workload in fresh processes; the worker's result plus the metrics."""
    setups = [] if trace else [setup_seconds() for _ in range(SETUP_REPEATS)]
    result = run_worker(name, seed, seconds, trace)
    result["setup_s_samples"] = setups
    result["metrics"] = result["per_layer"] if trace else end_to_end(result, setups)
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / f"result-{name}-seed{seed}-trace{trace}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def print_end_to_end(results: list[dict]) -> None:
    print(f"{'workload':<16}{'ops':>8}" + "".join(f"{f'{name} [{unit}]':>20}" for name, unit in TABLE))
    for r in results:
        print(f"{r['workload']:<16}{r['attempted']:>8}" + "".join(f"{_fmt(r['metrics'][name]):>20}" for name, _ in TABLE))


def print_per_layer(results: list[dict], spec: dict) -> None:
    print(f"{'per-layer metric, per traced op':<46}" + "".join(f"{r['workload']:>16}" for r in results))
    for m in spec["per_layer"]:
        label = f"{m['name']} [{m['unit']}]"
        print(f"{label:<46}" + "".join(f"{_fmt(r['metrics'][m['name']]):>16}" for r in results))


def contract_line(result: dict, metric_specs: list[dict]) -> str:
    metrics = {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in metric_specs}
    return json.dumps({"correct": result["failed"] == 0, "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": metrics})


def main(argv=None) -> int:
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=names, help="run one workload; default: all, untraced and traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "predcurves" / "__init__.py").is_file():
        print(f"error: no predcurves sources under {SRC}; run from the repository root", file=sys.stderr)
        return 2

    if args.workload:
        result = measure_workload(args.workload, args.seed, args.seconds, args.trace)
        if args.trace:
            print_per_layer([result], spec)
        else:
            print_end_to_end([result])
        for note in result["failures"]:
            print(f"failed {note}")
        print("meta " + json.dumps(result["meta"], sort_keys=True))
        print(contract_line(result, spec["per_layer" if args.trace else "end_to_end"]))
        return 0

    untraced = [measure_workload(name, args.seed, args.seconds, 0) for name in names]
    traced = [measure_workload(name, args.seed, args.seconds, 1) for name in names]
    print_end_to_end(untraced)
    print()
    print_per_layer(traced, spec)
    for r in untraced + traced:
        for note in r["failures"]:
            print(f"{r['workload']} failed {note}")
    print("meta " + json.dumps(untraced[0]["meta"], sort_keys=True))
    return 0 if all(r["failed"] == 0 for r in untraced + traced) else 1


if __name__ == "__main__":
    sys.exit(main())
