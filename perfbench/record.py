"""Record the reference outputs the benchmark checks ops against.

Run from the repository root at the commit whose outputs are the
reference:

    python3 perfbench/record.py              # every recorded workload, full and tiny sizes
    python3 perfbench/record.py nn-desk      # one workload

Each file under ``perfbench/reference/`` stores the workload's size
parameters and, for every case in its pool, what ``summarize`` keeps of
the op's output: a digest of the bytes, or for ``nn-desk`` the coverage
and width of every row.
"""

from __future__ import annotations

import json
import sys

from workloads import REFERENCE_DIR, WORKLOADS, RecordedWorkload, make


def record(wl: RecordedWorkload) -> None:
    cases = {}
    for case in range(wl.pool):
        cases[str(case)] = wl.summarize(wl.run(case))
    REFERENCE_DIR.mkdir(exist_ok=True)
    with open(wl.reference_path(), "w", encoding="utf-8") as fh:
        json.dump({"params": wl.params(), "cases": cases}, fh, indent=0)
        fh.write("\n")
    print(f"recorded {wl.pool} cases in {wl.reference_path().name}", file=sys.stderr)


def main(names: list[str]) -> int:
    for name in names or list(WORKLOADS):
        for size in ("tiny", "full"):
            wl = make(name, size)
            if isinstance(wl, RecordedWorkload):
                record(wl)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
