"""Compare two sets of result files, metric by metric.

::

    python3 benchmarks/e2e/compare.py BASE NEW
    python3 benchmarks/e2e/compare.py --selfcheck [--seed N]

``BASE`` and ``NEW`` are result files written by ``run.py`` (suite
form), or directories of them: one file per suite run.  A metric's
values on a side are what its runs *reported* (each already the median
of that run's repeats).  Each (workload, metric) row shows both sides'
median with their quartiles, the ratio ``new / base`` and a verdict
against the metric's bound in ``metrics.py``:

* ``worse`` / ``better`` - the medians differ by more than the bound
  (for a bound of 0: differ at all);
* ``unresolved`` - a side's own runs spread wider than the bound, so
  the benchmark cannot tell;
* ``unchanged`` - neither.

Per-layer metrics (traced result files) have no bound and no verdict.

``--selfcheck`` is the run-to-run acceptance check: the suite runs
``SELFCHECK_RUNS`` times per side on the current tree, the sides taking
turns and the workload order reversing every run, and any row that is
not ``unchanged`` between two sets of runs of the same code fails.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:  # script form: make ``benchmarks.e2e`` importable
    sys.path.insert(0, ROOT)

from benchmarks.e2e import harness, metrics, run  # noqa: E402

#: Suite runs per side of ``--selfcheck``.
SELFCHECK_RUNS = 3


def load_side(path: str) -> list[dict[str, Any]]:
    paths = (
        sorted(
            os.path.join(path, entry)
            for entry in os.listdir(path)
            if entry.endswith(".json")
        )
        if os.path.isdir(path)
        else [path]
    )
    runs = []
    for entry in paths:
        with open(entry) as handle:
            payload = json.load(handle)
        if payload.get("schema") == "bench-e2e/1":
            runs.append(payload)
    if not runs:
        raise SystemExit(f"no bench-e2e result file at {path}")
    return runs


def values_of(runs: list[dict[str, Any]], name: str, metric: str) -> list[float]:
    """What each run of one side reported for a metric."""
    return [
        run_["workloads"][name]["metrics"][metric]
        for run_ in runs
        if metric in run_["workloads"].get(name, {}).get("metrics", {})
    ]


def verdict(
    base: list[float], new: list[float], better: str, bound: float
) -> tuple[str, float]:
    """(verdict, new / base) for one metric on one workload."""
    base_median, new_median = harness.median(base), harness.median(new)
    ratio = new_median / base_median if base_median else float("inf")
    if max(harness.spread(base), harness.spread(new)) > bound:
        return "unresolved", ratio
    if base_median == new_median:
        return "unchanged", 1.0
    if base_median == 0:
        return ("worse" if better == "lower" else "better"), ratio
    worse_by = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse_by > bound:
        return "worse", ratio
    if worse_by < -bound:
        return "better", ratio
    return "unchanged", ratio


def compare(
    base_runs: list[dict[str, Any]], new_runs: list[dict[str, Any]]
) -> list[tuple[str, str, str]]:
    """Print one row per (workload, metric); return the rows' verdicts."""
    traced = base_runs[0].get("traced", False)
    table = metrics.table(traced)
    outcomes = []
    print(
        f"{'workload/metric':44} {'base median [q1, q3]':>36} "
        f"{'new median [q1, q3]':>36} {'new/base':>9}  verdict"
    )
    for name in metrics.WORKLOADS:
        for metric in table:
            base = values_of(base_runs, name, metric)
            new = values_of(new_runs, name, metric)
            if not base or not new:
                continue
            cells = []
            for values in (base, new):
                q1, median, q3 = harness.quartiles(values)
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            if traced:
                median = harness.median(base)
                ratio = harness.median(new) / median if median else float("nan")
                outcome = f"- (n={len(base)}/{len(new)})"
            else:
                bound = metrics.bound(name, metric)
                outcome, ratio = verdict(base, new, table[metric].better, bound)
                outcomes.append((name, metric, outcome))
                outcome += f" (bound {bound:g}, n={len(base)}/{len(new)})"
            print(
                f"{name + '/' + metric:44} {cells[0]:>36} {cells[1]:>36} "
                f"{ratio:9.4f}  {outcome}"
            )
    return outcomes


def selfcheck(seed: int) -> int:
    out = harness.out_dir()
    sides: dict[str, list[str]] = {"a": [], "b": []}
    for turn in range(2 * SELFCHECK_RUNS):
        # a b b a a b: the sides take turns at going first
        side = "ab"[(turn + 1) // 2 % 2]
        order = list(metrics.WORKLOADS)[:: 1 if turn % 2 == 0 else -1]
        path = os.path.join(
            out, f"selfcheck-seed{seed}-{side}", f"run{len(sides[side])}.json"
        )
        os.makedirs(os.path.dirname(path), exist_ok=True)
        code = run.main(
            ["--seed", str(seed), "--out", path, "--order", ",".join(order)]
        )
        if code != 0:
            return code
        sides[side].append(path)
    outcomes = compare(
        *(load_side(os.path.dirname(paths[0])) for paths in sides.values())
    )
    left = [row for row in outcomes if row[2] != "unchanged"]
    print(
        f"selfcheck seed {seed}: {len(outcomes)} pairs, "
        f"{len(left)} not unchanged between two sets of runs of the same code"
    )
    for name, metric, outcome in left:
        print(f"  {name}/{metric}: {outcome}")
    return 1 if left else 0


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base", nargs="?")
    parser.add_argument("new", nargs="?")
    parser.add_argument("--selfcheck", action="store_true")
    parser.add_argument("--seed", type=int, default=0, help="seed of --selfcheck")
    args = parser.parse_args(argv)
    if args.selfcheck:
        return selfcheck(args.seed)
    if not (args.base and args.new):
        parser.error("give BASE and NEW, or --selfcheck")
    outcomes = compare(load_side(args.base), load_side(args.new))
    return 1 if any(outcome == "worse" for _, _, outcome in outcomes) else 0


if __name__ == "__main__":
    sys.exit(main())
