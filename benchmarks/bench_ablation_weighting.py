"""Ablation A1 - Blocking Graph weighting scheme for PBS and PPS.

The paper fixes ARCS for all equality-based experiments (Section 7,
"Parameter configuration").  This ablation sweeps the other Meta-blocking
schemes (CBS, ECBS, JS) on movies to quantify how much of PBS/PPS's
progressiveness is owed to the scheme choice.
"""

from __future__ import annotations

import pytest

from benchmarks._shared import dataset, emit
from repro.evaluation.report import format_table
from repro.pipeline import ERPipeline

SCHEMES = ("ARCS", "CBS", "ECBS", "JS")
MAX_EC = 10.0


def compute_rows(method_name: str) -> list[list[object]]:
    data = dataset("movies")
    rows = []
    for scheme in SCHEMES:
        resolver = ERPipeline().meta(scheme).method(method_name).fit(data)
        curve = resolver.evaluate(max_ec_star=MAX_EC)
        rows.append(
            [
                scheme,
                f"{curve.recall_at(1):.3f}",
                f"{curve.recall_at(10):.3f}",
                f"{curve.normalized_auc_at(10):.3f}",
            ]
        )
    return rows


@pytest.mark.parametrize("method_name", ("PBS", "PPS"))
def bench_ablation_weighting_scheme(benchmark, method_name):
    rows = benchmark.pedantic(
        compute_rows, args=(method_name,), rounds=1, iterations=1
    )
    table = format_table(
        ["scheme", "recall@1", "recall@10", "AUC*@10"],
        rows,
        title=f"Ablation A1 ({method_name} on movies): weighting scheme sweep",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows

    auc = {row[0]: float(row[3]) for row in rows}
    # ARCS (the paper's default) should be competitive with every scheme.
    assert auc["ARCS"] >= 0.8 * max(auc.values())
