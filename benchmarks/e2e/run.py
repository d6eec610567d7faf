"""The benchmark's one command.

Driver form - one workload, one JSON object on the last line::

    python3 benchmarks/e2e/run.py --workload hetero-movies --seed 3 \\
        --seconds 20 --trace 0

Suite form - every workload, a printed report and a result file for
``compare.py``::

    python3 benchmarks/e2e/run.py [--seed N] [--trace 1] [--smoke] [--out FILE]

``--trace 1`` makes the separate traced run (per-layer metrics, and in
suite form ``trace.json``) instead of the end-to-end one.  The exit
code is 0 only if every correctness check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Any

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:  # script form: make ``benchmarks.e2e`` importable
    sys.path.insert(0, ROOT)

from benchmarks.e2e import harness, metrics, workloads  # noqa: E402
from benchmarks.e2e.trace import TRACE_REPEATS  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
CONTRACT_PATH = os.path.join(ROOT, "BENCHMARK.json")
EXPECTED_PATH = os.path.join(HERE, "expected.json")

#: What ``expected.json`` pins for seed 0 at full size.
PINNED = (
    "digest", "emitted", "recall", "cmp_to_recall", "decision_digest",
    "decision_f1",
)  # fmt: skip


def load_contract() -> dict[str, Any]:
    with open(CONTRACT_PATH) as handle:
        return json.load(handle)


def measure(
    name: str, seed: int, seconds: float, trace: int, smoke: bool
) -> dict[str, Any]:
    sizes = (workloads.SMOKE if smoke else workloads.FULL)[name]
    if trace:
        repeats = 1 if smoke else TRACE_REPEATS
    else:
        repeats = 2 if smoke else workloads.repeats_for(seconds)
    result = harness.run_worker(
        {
            "workload": name,
            "sizes": sizes,
            "seed": seed,
            "repeats": repeats,
            "trace": trace,
        }
    )
    result.update(workload=name, seed=seed, repeats=repeats, sizes=sizes)
    if not trace:
        check_pins(result, smoke)
    return result


def record_check(result: dict[str, Any], label: str, ok: bool) -> None:
    """A check is an operation: it counts as attempted, and failed if not ok."""
    result["checks"].append({"check": label, "ok": ok})
    result["attempted"] += 1
    result["failed"] += 0 if ok else 1


def check_pins(result: dict[str, Any], smoke: bool) -> None:
    """Compare a seed-0 full-size result with ``expected.json``."""
    if smoke or result["seed"] != 0 or not os.path.exists(EXPECTED_PATH):
        return
    with open(EXPECTED_PATH) as handle:
        expected = json.load(handle)["workloads"].get(result["workload"], {})
    seen = {**result["metrics"], **result.get("reference", {})}
    for key, want in expected.items():
        got = seen.get(key)
        if result["workload"] == "serve-mixed":
            ok = abs(got - want) <= metrics.bound("serve-mixed", key)
        else:
            ok = got == want
        record_check(result, f"{key} == pinned {want!r} (got {got!r})", ok)


def finish(result: dict[str, Any], traced: int) -> None:
    """Close a result: the failure ratio, and the measured names against
    the ones the workload owns (a metric nobody declared, or a declared
    one that was not measured, is a bug in the benchmark)."""
    name = result["workload"]
    if not traced:
        result["metrics"]["failed_ops_ratio"] = result["failed"] / result["attempted"]
    measured, owned = set(result["metrics"]), metrics.owned(name, bool(traced))
    if measured != owned:
        raise RuntimeError(
            f"{name}: not measured {sorted(owned - measured)}, "
            f"not declared {sorted(measured - owned)}"
        )


def report(result: dict[str, Any], traced: int) -> None:
    """``workload/metric value unit``, then repeats, samples, checks."""
    name = result["workload"]
    table = metrics.table(bool(traced))
    for metric, value in sorted(result["metrics"].items()):
        print(f"{name}/{metric} {value!r} {table[metric].unit}")
    for metric, values in sorted(result.get("raw", {}).items()):
        print(f"{name}/{metric} repeats {values}")
    for kind, count in sorted(result.get("samples", {}).items()):
        print(f"{name}/{kind}_samples {count}")
    for check in result["checks"]:
        print(f"{name} check {'ok  ' if check['ok'] else 'FAIL'} {check['check']}")
    for error in result.get("errors", []):
        print(f"{name} error {error}")


def driver_line(
    result: dict[str, Any], contract: dict[str, Any], trace: int
) -> dict[str, Any]:
    """The object the driver reads: exactly the contract's metrics."""
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]}
            for m in contract["per_layer" if trace else "end_to_end"]
        },
    }


def run_suite(args: argparse.Namespace, contract: dict[str, Any]) -> int:
    environment = harness.environment()
    names = args.order.split(",") if args.order else list(metrics.WORKLOADS)
    results: dict[str, Any] = {}
    for name in names:
        began = time.perf_counter()
        result = measure(name, args.seed, args.seconds, args.trace, args.smoke)
        result["wall_s"] = time.perf_counter() - began
        results[name] = result
    if not args.trace and {"hetero-movies", "ref-movies-python"} <= set(results):
        engine, reference = (
            results[name]["reference"]
            for name in ("hetero-movies", "ref-movies-python")
        )
        same = engine["digest"] == reference["digest"]
        for name in ("hetero-movies", "ref-movies-python"):
            record_check(results[name], "engine stream == reference stream", same)
    for result in results.values():
        finish(result, args.trace)
        report(result, args.trace)

    environment.update(
        loadavg_end=list(os.getloadavg()),
        seed=args.seed,
        seconds=args.seconds,
        smoke=args.smoke,
        repeats={name: results[name]["repeats"] for name in results},
        sizes={name: results[name]["sizes"] for name in results},
    )
    spans = [span for r in results.values() for span in r.pop("spans", [])]
    payload = {
        "schema": "bench-e2e/1",
        "traced": bool(args.trace),
        "environment": environment,
        "workloads": results,
    }
    kind = "trace" if args.trace else "results"
    out = args.out or os.path.join(harness.out_dir(), f"{kind}-seed{args.seed}.json")
    with open(out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    print(f"wrote {out}")
    if args.trace:
        trace_path = os.path.join(os.path.dirname(out), "trace.json")
        with open(trace_path, "w") as handle:
            json.dump({"environment": environment, "spans": spans}, handle)
        print(f"wrote {trace_path} ({len(spans)} spans)")
    if args.pin:
        pins = {
            name: {
                key: result["reference"][key]
                for key in PINNED
                if result["reference"].get(key) is not None
            }
            if "reference" in result
            else {"recall": result["metrics"]["recall"]}
            for name, result in results.items()
        }
        with open(EXPECTED_PATH, "w") as handle:
            json.dump({"seed": args.seed, "workloads": pins}, handle, indent=1)
        print(f"wrote {EXPECTED_PATH}")
    failed = sum(r["failed"] for r in results.values())
    print(f"suite: {failed} failed checks or operations")
    return 0 if failed == 0 else 1


def main(argv: "list[str] | None" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=metrics.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="~1/20 sizes, 2 repeats")
    parser.add_argument("--out", help="suite form: result file to write")
    parser.add_argument("--order", help="suite form: comma-separated workload order")
    parser.add_argument(
        "--pin", action="store_true", help="suite form: rewrite expected.json"
    )
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(ROOT, "src", "repro")):
        print("no src/repro next to the benchmark: nothing to measure", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.workload is None:
        return run_suite(args, contract)
    result = measure(args.workload, args.seed, args.seconds, args.trace, args.smoke)
    finish(result, args.trace)
    report(result, args.trace)
    print(json.dumps(driver_line(result, contract, args.trace)))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
