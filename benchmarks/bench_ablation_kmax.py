"""Ablation A4 - PPS's per-profile budget K_max.

The paper leaves K_max unspecified; DESIGN.md documents our adaptive
default (average block comparisons per profile, clamped to [10, 50]).
This sweep shows the trade-off the clamp balances on cora, whose large
equivalence clusters make K_max decisive: small K caps recall, large K
floods the early stream with weak comparisons.
"""

from __future__ import annotations

from benchmarks._shared import dataset, emit
from repro.evaluation.report import format_table
from repro.pipeline import ERPipeline

K_VALUES = (1, 10, 25, 50, 100, None)  # None = adaptive default


def compute_rows() -> list[list[object]]:
    data = dataset("cora")
    rows = []
    for k_max in K_VALUES:
        resolver = ERPipeline().method("PPS", k_max=k_max).fit(data)
        curve = resolver.evaluate(max_ec_star=10.0)
        method = resolver.initialize().method  # the effective K_max
        label = "adaptive" if k_max is None else str(k_max)
        rows.append(
            [
                label,
                method.k_max,
                f"{curve.recall_at(1):.3f}",
                f"{curve.recall_at(4):.3f}",
                f"{curve.recall_at(10):.3f}",
                f"{curve.normalized_auc_at(10):.3f}",
            ]
        )
    return rows


def bench_ablation_pps_kmax(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    table = format_table(
        ["K_max", "effective", "recall@1", "recall@4", "recall@10", "AUC*@10"],
        rows,
        title="Ablation A4 (cora): PPS per-profile budget sweep",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows

    by_label = {row[0]: row for row in rows}
    # Tiny K caps final recall on large-cluster data.
    assert float(by_label["1"][4]) < float(by_label["50"][4])
    # The adaptive default should sit near the best fixed setting.
    best_auc = max(float(row[5]) for row in rows)
    assert float(by_label["adaptive"][5]) >= 0.75 * best_auc
