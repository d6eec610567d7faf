"""The measuring process: one workload (or one traced run, or one cell).

Started by :func:`benchmarks.e2e.harness.run_worker` with the spec as
JSON in ``argv[1]``; prints progress lines and one ``RESULT:`` line.
"""

from __future__ import annotations

import json
import sys
import time

from benchmarks.e2e import harness, trace, workloads


def main(argv: list[str]) -> int:
    started = time.perf_counter()
    spec = json.loads(argv[1])
    if "cell" in spec:
        result = trace.run_cell(spec)
    elif spec["trace"]:
        result = trace.trace_workload(
            spec["workload"], spec["sizes"], spec["seed"], spec["repeats"]
        )
    else:
        result = workloads.run_workload(
            spec["workload"], spec["sizes"], spec["seed"], spec["repeats"], started
        )
    print(harness.RESULT_MARKER + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
