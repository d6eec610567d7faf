"""Table 1 - empirical check of the complexity claims.

The paper's Table 1 states space/time complexities; this bench validates
the *scaling shape* empirically: initialization time and core structure
sizes as |P| doubles (movies-like data at three scales).  Linear-ish
structures should grow ~2x per step; the initialization times should grow
near-linearly (the log factor of sorting is invisible at these sizes).
"""

from __future__ import annotations

from benchmarks._shared import emit
from repro.datasets.registry import load_dataset
from repro.evaluation.report import format_table
from repro.evaluation.timing import measure_initialization
from repro.neighborlist.neighbor_list import NeighborList
from repro.pipeline import ERPipeline

SCALES = (0.01, 0.02, 0.04)
METHODS = ("SA-PSN", "LS-PSN", "GS-PSN", "PBS", "PPS")


def compute_rows() -> list[list[object]]:
    rows = []
    for scale in SCALES:
        data = load_dataset("movies", scale=scale)
        nl_size = len(NeighborList.schema_agnostic(data.store))
        row: list[object] = [f"{scale:g}", len(data.store), nl_size]
        for method_name in METHODS:
            # build_method() hands back the method un-initialized: block
            # building stays inside the timed initialization phase.
            method = ERPipeline().method(method_name).fit(data).build_method()
            row.append(f"{measure_initialization(method):.3f}s")
        rows.append(row)
    return rows


def bench_table1_scaling(benchmark):
    rows = benchmark.pedantic(compute_rows, rounds=1, iterations=1)
    table = format_table(
        ["scale", "|P|", "NL size"] + [f"{m} init" for m in METHODS],
        rows,
        title="Table 1 (empirical): init time and structure size vs |P|",
    )
    emit(table)
    benchmark.extra_info["rows"] = rows

    # The Neighbor List is O(|p| * |P|): it should grow ~linearly in |P|.
    populations = [row[1] for row in rows]
    nl_sizes = [row[2] for row in rows]
    for step in range(1, len(SCALES)):
        population_ratio = populations[step] / populations[step - 1]
        nl_ratio = nl_sizes[step] / nl_sizes[step - 1]
        assert 0.6 * population_ratio <= nl_ratio <= 1.6 * population_ratio
