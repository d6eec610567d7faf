"""Table 2 - dataset characteristics, generated vs paper.

Prints |P|, #attributes, |D(P)| and the mean number of name-value pairs
for every synthetic dataset next to the published characteristics of the
real dataset it substitutes (scaled where applicable - the large
heterogeneous datasets are generated at the scale recorded per row).
"""

from __future__ import annotations

from benchmarks._shared import BENCH_SCALES, dataset, emit
from repro.evaluation.report import format_table


def compute_rows() -> list[list[object]]:
    rows = []
    # The paper's datasets only: the seeded ``synthetic`` scale generator
    # substitutes no real dataset, so it has no Table 2 row or scale.
    for name in BENCH_SCALES:
        data = dataset(name)
        stats = data.stats()
        paper = data.paper_stats
        rows.append(
            [
                name,
                stats["er_type"],
                BENCH_SCALES[name],
                stats["profiles"],
                round(paper["profiles"] * BENCH_SCALES[name]),
                stats["attributes"],
                stats["matches"],
                round(paper["matches"] * BENCH_SCALES[name]),
                stats["mean_pairs"],
                paper["mean_pairs"],
            ]
        )
    return rows


def bench_table2_dataset_characteristics(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    table = format_table(
        [
            # fmt: off
            "dataset", "ER type", "scale",
            "|P|", "|P| target",
            "#attr",
            "|DP|", "|DP| target",
            "|p| mean", "|p| paper",
            # fmt: on
        ],
        rows,
        title="Table 2: dataset characteristics (generated vs paper x scale)",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows
    for row in rows:
        profiles, target = row[3], row[4]
        assert abs(profiles - target) <= max(3, 0.05 * target)
        mean_pairs, paper_pairs = row[8], row[9]
        assert abs(mean_pairs - paper_pairs) <= max(0.6, 0.2 * paper_pairs)
