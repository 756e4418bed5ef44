"""Run one workload in this process and print its measurements as one JSON line.

``run.py`` starts one worker per workload run, so peak RSS belongs to
that workload alone. The loop is closed: one op at a time, the next op
starts when the previous one and its correctness check are done. Op
inputs are made and checked outside the timed region.

With tracing on, every op index runs twice on the same inputs, once
untraced and once traced, in alternating order; the ratio of the two
summed durations is the tracing overhead.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

import numpy as np
import scipy

from workloads import ROOT, SRC, make  # puts the checkout's src/ first on sys.path
import predcurves
from tracer import Tracer, per_layer

OUT_DIR = ROOT / "perfbench" / "out"
MAX_FAILURE_NOTES = 5


def _timed(fn, *args):
    """(seconds, result, error text) of one call."""
    t0 = perf_counter()
    try:
        out = fn(*args)
    except Exception as exc:  # a failing op is counted, not fatal
        return perf_counter() - t0, None, f"{type(exc).__name__}: {exc}"
    return perf_counter() - t0, out, None


def measure(wl, seed: int, seconds: float, trace: bool) -> tuple[dict, Tracer | None]:
    """Run ops of ``wl`` for ``seconds``; returns the measurements and the tracer, if any."""
    wl.prepare()
    warm = make(wl.name, "tiny")
    warm.run(warm.case(seed, 0))

    tracer = Tracer() if trace else None
    latencies, traced_latencies, failures = [], [], []
    attempted = failed = 0
    start = perf_counter()
    i = 0
    while i == 0 or perf_counter() - start < seconds:
        case = wl.case(seed, i)
        order = (False,) if tracer is None else (False, True) if i % 2 == 0 else (True, False)
        for traced in order:
            dt, out, err = _timed(tracer.trace_op, i, wl.run, case) if traced else _timed(wl.run, case)
            if err is None:
                try:
                    err = wl.check(case, out)
                except Exception as exc:  # a check that cannot run fails the op
                    err = f"check raised {type(exc).__name__}: {exc}"
            (traced_latencies if traced else latencies).append(dt)
            attempted += 1
            if err is not None:
                failed += 1
                if len(failures) < MAX_FAILURE_NOTES:
                    failures.append(f"op {i}: {err}")
        i += 1

    result = {
        "workload": wl.name,
        "size": wl.size,
        "params": wl.params(),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "latencies_s": latencies,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "meta": run_metadata(seed),
    }
    if tracer is not None:
        result["per_layer"] = per_layer(tracer, sum(traced_latencies), sum(latencies), len(traced_latencies))
    return result, tracer


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, or None if it cannot be asked."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str:
    """HEAD commit read from ``.git`` without running git; "unknown" in a source export without ``.git``."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run_metadata(seed: int) -> dict:
    """What a result must carry so runs from other machines or settings are not compared by mistake."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sources = hashlib.sha256()
    for path in sorted((SRC / "predcurves").glob("*.py")):
        sources.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "git_commit": _git_commit(),
        "source_sha256": sources.hexdigest(),
        "workload_seed": seed,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {k: os.environ[k] for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if Path(predcurves.__file__).resolve().parent != SRC / "predcurves":
        print(f"predcurves was imported from {predcurves.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    result, tracer = measure(make(args.workload), args.seed, args.seconds, bool(args.trace))
    if tracer is not None:
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json.gz"
        tracer.dump(path)
        result["spans_file"] = str(path.relative_to(ROOT))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
