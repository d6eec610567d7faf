"""Ablation A2 - Block Purging / Block Filtering on and off.

The Token Blocking workflow (Section 7) prescribes purging at 10% and
filtering at 80% before the equality-based methods run.  This ablation
toggles the two steps on freebase-like RDF data and reports both blocking
quality (PC/PQ) and PPS progressiveness on the resulting blocks.
"""

from __future__ import annotations

from benchmarks._shared import dataset, emit
from repro.blocking.workflow import token_blocking_workflow
from repro.evaluation.metrics import evaluate_blocking
from repro.evaluation.report import format_table
from repro.pipeline import ERPipeline

CONFIGS = (
    ("full workflow", 0.1, 0.8),
    ("no purging", None, 0.8),
    ("no filtering", 0.1, None),
    ("raw token blocking", None, None),
)


def compute_rows() -> list[list[object]]:
    data = dataset("freebase")
    rows = []
    for label, purge, filter_ratio in CONFIGS:
        blocks = token_blocking_workflow(
            data.store, purge_ratio=purge, filter_ratio=filter_ratio
        )
        quality = evaluate_blocking(blocks, data.ground_truth)
        resolver = ERPipeline().method("PPS", blocks=blocks).fit(data)
        curve = resolver.evaluate(max_ec_star=10.0)
        rows.append(
            [
                label,
                len(blocks),
                blocks.aggregate_cardinality(),
                f"{quality.pairs_completeness:.3f}",
                f"{quality.pairs_quality:.4f}",
                f"{curve.normalized_auc_at(10):.3f}",
            ]
        )
    return rows


def bench_ablation_workflow_steps(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    table = format_table(
        ["configuration", "|B|", "||B||", "PC", "PQ", "PPS AUC*@10"],
        rows,
        title="Ablation A2 (freebase): purging/filtering contribution",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows

    by_label = {row[0]: row for row in rows}
    # Purging + filtering shrink the comparison space...
    assert by_label["full workflow"][2] < by_label["raw token blocking"][2]
    # ...at nearly no completeness cost.
    assert float(by_label["full workflow"][3]) >= (
        float(by_label["raw token blocking"][3]) - 0.05
    )
