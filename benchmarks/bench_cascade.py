"""Cascade benchmark: decided-per-tier fractions and decision overhead.

Runs the stock ``exact -> jaccard -> edit-distance`` cascade over the
progressive stream on cddb (structured) and the synthetic workload, on
the python and numpy backends, and reports for every cell:

* the fraction of comparisons each tier decides (the "which tier pays
  off" question, answered by the run itself);
* the decision path's wall clock against a no-cascade baseline that
  drains the identical ranked stream without deciding it;
* digest checks: the decide stream's comparisons must be bit-identical
  to the baseline ranked stream, and the decision rows bit-identical
  across backends.

Writes ``BENCH_cascade.json`` so the decision layer's perf trajectory
is tracked across PRs.

Usage::

    PYTHONPATH=src python benchmarks/bench_cascade.py            # full run
    PYTHONPATH=src python benchmarks/bench_cascade.py --smoke    # CI smoke

    # CI regression gate (same semantics as bench_engine): fail when a
    # cell's decide-path wall clock regresses more than 25%.
    PYTHONPATH=src python benchmarks/bench_cascade.py --smoke \
        --compare BENCH_cascade.json --tolerance 0.25
"""

from __future__ import annotations

import argparse
import hashlib
import sys
import time

from repro.core.profiles import ProfileStore
from repro.datasets.base import Dataset
from repro.datasets.registry import load_dataset
from repro.evaluation.report import format_table
from repro.pipeline import ERPipeline

try:  # package import (pytest) vs direct script execution
    from benchmarks._shared import emit, write_bench_json
    from benchmarks.bench_engine import compare_against_baseline
except ImportError:  # pragma: no cover - script mode
    from _shared import emit, write_bench_json
    from bench_engine import compare_against_baseline

#: (dataset, scale, comparison budget) per mode.  The budget keeps the
#: edit-distance residue laptop-sized; both modes drain the same stream
#: for the baseline and the decide run, so the contrast is fair.
FULL_CELLS = (("cddb", 0.5, 10_000), ("synthetic", 0.01, 10_000))
SMOKE_CELLS = (("cddb", 0.1, 1_500), ("synthetic", 0.002, 1_500))

BACKENDS = ("python", "numpy")


def _load(name: str, scale: float) -> Dataset:
    data = load_dataset(name, scale=scale)
    if not isinstance(data.store, ProfileStore):
        # The synthetic workload streams its profiles in chunks with a
        # one-slot cache; the decision loop's per-pair random access
        # would thrash chunk regeneration and the bench would measure
        # the generator, not the cascade.  Materialize once up front.
        data.store = ProfileStore(list(data.store), er_type=data.store.er_type)
    return data


def _pipeline(backend: str, budget: int, decide: bool) -> ERPipeline:
    pipeline = (
        ERPipeline()
        .method("PPS")
        .budget(comparisons=budget)
        .backend(backend)
    )
    if decide:
        pipeline = pipeline.match()
    return pipeline


def _decision_digest(rows: list) -> str:
    digest = hashlib.blake2b(digest_size=16)
    for record in rows:
        comparison = record.comparison
        digest.update(
            f"{comparison.i},{comparison.j},{comparison.weight!r},"
            f"{record.decision},{record.tier},{record.similarity!r};".encode()
        )
    return digest.hexdigest()


def timed_cascade_run(
    dataset_name: str, data: Dataset, backend: str, budget: int
) -> dict:
    """One (dataset, backend) cascade measurement.

    The baseline drains the ranked stream without deciding it; the
    decide run resolves the same stream through the cascade.  Both are
    timed from ``initialize()`` (shared) plus their own drain.
    """
    from repro.service.snapshot import stream_digest

    baseline = _pipeline(backend, budget, decide=False).fit(
        data.store, ground_truth=data.ground_truth
    )
    began = time.perf_counter()
    baseline.initialize()
    init_seconds = time.perf_counter() - began
    began = time.perf_counter()
    ranked = list(baseline.stream())
    baseline_seconds = time.perf_counter() - began
    ranked_digest = stream_digest(ranked)

    decided = _pipeline(backend, budget, decide=True).fit(
        data.store, ground_truth=data.ground_truth
    )
    decided.initialize()
    began = time.perf_counter()
    rows = list(decided.resolve_stream(decide=True))
    decide_seconds = time.perf_counter() - began

    assert stream_digest(r.comparison for r in rows) == ranked_digest, (
        f"decide stream diverges from the ranked stream for {backend} "
        f"on {dataset_name}"
    )
    stats = decided.cascade_stats()
    total_decided = sum(t["decided"] for t in stats["tiers"]) or 1
    fractions = {
        tier["name"]: tier["decided"] / total_decided
        for tier in stats["tiers"]
    }
    quality = decided.decision_quality()
    return {
        "dataset": dataset_name,
        "method": "PPS",
        "backend": backend,
        "emitted": len(rows),
        "init_seconds": init_seconds,
        "baseline_seconds": baseline_seconds,
        "decide_seconds": decide_seconds,
        "overhead": decide_seconds / max(baseline_seconds, 1e-9),
        "total_seconds": init_seconds + decide_seconds,
        "tier_fractions": fractions,
        "tier_stats": stats["tiers"],
        "f1": quality.f1,
        "decision_digest": _decision_digest(rows),
        "stream_digest": ranked_digest,
    }


def run(smoke: bool = False, workers: int | None = None) -> dict:
    del workers  # accepted for CLI symmetry with bench_engine
    cells = SMOKE_CELLS if smoke else FULL_CELLS
    runs = []
    rows = []
    for position, (dataset_name, scale, budget) in enumerate(cells):
        data = _load(dataset_name, scale)
        by_backend = {}
        for backend in BACKENDS:
            if position == 0:
                # A backend's first initialize() in a process imports its
                # modules (numpy and the engine: 0.15 s of a 0.22 s
                # init); warm it once, off the clock, so init_seconds
                # measures src/ and not the import.
                _pipeline(backend, budget, decide=False).fit(
                    data.store
                ).initialize()
            result = timed_cascade_run(dataset_name, data, backend, budget)
            by_backend[backend] = result
            runs.append(result)
        reference = by_backend[BACKENDS[0]]
        for backend in BACKENDS[1:]:
            contender = by_backend[backend]
            assert (
                reference["decision_digest"] == contender["decision_digest"]
            ), (
                f"{BACKENDS[0]} and {backend} decision streams diverge "
                f"on {dataset_name}"
            )
        for backend in BACKENDS:
            result = by_backend[backend]
            fractions = result["tier_fractions"]
            rows.append(
                [
                    dataset_name,
                    backend,
                    result["emitted"],
                    " / ".join(
                        f"{name}={fraction:.0%}"
                        for name, fraction in fractions.items()
                    ),
                    f"{result['baseline_seconds']:.2f}s",
                    f"{result['decide_seconds']:.2f}s",
                    f"{result['overhead']:.2f}x",
                    f"{result['f1']:.3f}",
                ]
            )
    payload = {
        "schema": "bench-cascade/1",
        "smoke": smoke,
        "runs": runs,
    }
    emit(
        format_table(
            [
                # fmt: off
                "dataset", "backend", "decided", "decided per tier",
                "stream only", "stream+decide", "overhead", "F1",
                # fmt: on
            ],
            rows,
            title="Cascade benchmark: per-tier decisions vs no-cascade baseline",
        )
    )
    return payload


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="quick CI subset (~15s)"
    )
    parser.add_argument(
        "--compare",
        metavar="BASELINE.json",
        help="fail (exit 1) on wall-clock regression against this baseline",
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        help="allowed fractional slowdown per cell (default 0.25 = +25%%)",
    )
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="accepted for symmetry with bench_engine (unused)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_cascade.json",
        metavar="PATH",
        help="where to write the fresh JSON (default: BENCH_cascade.json)",
    )
    args = parser.parse_args(argv)

    payload = run(smoke=args.smoke, workers=args.workers)
    path = write_bench_json(payload, args.out)
    print(f"wrote {path}")

    if args.compare:
        regressions = compare_against_baseline(
            payload, args.compare, args.tolerance
        )
        if regressions:
            print("cascade regression gate FAILED:", file=sys.stderr)
            for line in regressions:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("cascade regression gate passed")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
