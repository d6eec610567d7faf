"""Ablation A3 - GS-PSN's window range w_max.

The paper sets w_max = 20 for structured datasets and 200 for the large
ones, noting the space cost grows with w_max.  This sweep quantifies the
recall/AUC gain of widening the window range on census, together with the
size of the precomputed Comparison List (the memory driver).
"""

from __future__ import annotations

from benchmarks._shared import dataset, emit
from repro.evaluation.report import format_table
from repro.pipeline import ERPipeline

WINDOWS = (5, 10, 20, 50)


def compute_rows() -> list[list[object]]:
    data = dataset("census")
    rows = []
    for w_max in WINDOWS:
        resolver = ERPipeline().method("GS-PSN", max_window=w_max).fit(data)
        comparisons = len(resolver.initialize().method._comparisons)
        curve = resolver.evaluate(max_ec_star=10.0)
        rows.append(
            [
                w_max,
                comparisons,
                f"{curve.recall_at(1):.3f}",
                f"{curve.recall_at(10):.3f}",
                f"{curve.normalized_auc_at(10):.3f}",
            ]
        )
    return rows


def bench_ablation_gs_psn_wmax(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    table = format_table(
        ["w_max", "comparison list size", "recall@1", "recall@10", "AUC*@10"],
        rows,
        title="Ablation A3 (census): GS-PSN window range sweep",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows

    # Memory (comparison list size) grows monotonically with w_max...
    sizes = [row[1] for row in rows]
    assert sizes == sorted(sizes)
    # ...and recall@10 does not degrade when the window widens.
    recalls = [float(row[3]) for row in rows]
    assert recalls[-1] >= recalls[0] - 0.02
