"""Tier-1 checks of the benchmark itself: contract, names, spans, recall.

One smoke-size run of every workload, untraced and traced, feeds every
test here, so the whole module costs a few seconds.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor

import pytest

from benchmarks.e2e import compare, harness, metrics, run, workloads

pytest.importorskip("numpy")

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


@pytest.fixture(scope="module")
def contract():
    return run.load_contract()


@pytest.fixture(scope="module")
def smoke_results():
    """``{(workload, traced): result}``: every workload at smoke size,
    two worker processes at a time (nothing here asserts a timing)."""

    def one(key):
        name, traced = key
        result = run.measure(name, seed=3, seconds=1.0, trace=traced, smoke=True)
        run.finish(result, traced)
        return key, result

    keys = [(name, traced) for traced in (0, 1) for name in metrics.WORKLOADS]
    with ThreadPoolExecutor(max_workers=2) as pool:
        return dict(pool.map(one, keys))


def test_contract_shape(contract):
    assert set(contract) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }  # fmt: skip
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["run_seconds"] == workloads.RUN_SECONDS
    assert [w["name"] for w in contract["workloads"]] == list(metrics.WORKLOADS)
    assert tuple(workloads.FULL) == tuple(workloads.SMOKE) == metrics.WORKLOADS
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [
        entry["name"]
        for kind in ("workloads", "end_to_end", "per_layer")
        for entry in contract[kind]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.match(name) for name in names)
    for workload in contract["workloads"]:
        assert set(workload) == {"name", "why"} and len(workload["why"]) <= 200
    for metric in contract["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in contract["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    setup = next(m for m in contract["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in contract["end_to_end"])


def test_contract_lists_the_metrics_every_workload_owns(contract):
    """``BENCHMARK.json`` is the all-workload part of ``metrics.py``."""
    for kind, traced in (("end_to_end", False), ("per_layer", True)):
        table = metrics.table(traced)
        assert [m["name"] for m in contract[kind]] == metrics.universal(traced)
        for entry in contract[kind]:
            declared = table[entry["name"]]
            assert (entry["unit"], entry["better"]) == declared[:2]
            # the driver's unpaired comparison is never held tighter than
            # compare.py's paired one
            assert entry.get("bound", 1.0) >= declared.bound
    assert len(metrics.END_TO_END) == 14
    for name, metric in {**metrics.END_TO_END, **metrics.PER_LAYER}.items():
        assert NAME.match(name) and metric.better in ("lower", "higher")
        assert set(metric.owners) <= set(metrics.WORKLOADS) and metric.owners


def test_each_workload_measures_exactly_what_it_owns(contract, smoke_results):
    """``run.finish`` raised in the fixture if a run measured a name its
    workload does not own, or missed one it does; here: the driver's line."""
    for (name, traced), result in smoke_results.items():
        assert set(result["metrics"]) == metrics.owned(name, bool(traced))
        line = run.driver_line(result, contract, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
        listed = contract["per_layer" if traced else "end_to_end"]
        assert list(line["metrics"]) == [m["name"] for m in listed]
        if not traced:
            assert all(entry["value"] != 0 for entry in line["metrics"].values())
    measured = {
        metric
        for (_name, traced), result in smoke_results.items()
        for metric in result["metrics"]
    }
    assert measured == set(metrics.END_TO_END) | set(metrics.PER_LAYER)


def test_spans_nest_and_parents_exist(smoke_results):
    for (name, traced), result in smoke_results.items():
        if not traced:
            continue
        spans = result["spans"]
        by_id = {span["id"]: span for span in spans}
        assert len(by_id) == len(spans) > 0
        for span in spans:
            assert span["end"] >= span["start"] and span["workload"] == name
            assert set(span) == {
                "id", "name", "parent", "workload", "repeat", "start", "end",
            }  # fmt: skip
            if span["parent"] is not None:
                parent = by_id[span["parent"]]
                assert parent["start"] <= span["start"]
                assert span["end"] <= parent["end"]


def test_compare_verdicts():
    steady, shifted = [1.00, 1.01, 1.02], [1.20, 1.21, 1.22]
    assert compare.verdict(steady, steady, "lower", 0.1) == ("unchanged", 1.0)
    assert compare.verdict(steady, shifted, "lower", 0.1)[0] == "worse"
    assert compare.verdict(steady, shifted, "higher", 0.1)[0] == "better"
    assert compare.verdict(steady, [1.0, 1.2, 1.4], "lower", 0.1)[0] == "unresolved"
    # a bound of 0 is "exactly": an F1 of 0.98 against 0.75 is worse, and
    # runs of one side that disagree among themselves resolve nothing
    assert compare.verdict([0.98] * 3, [0.75] * 3, "higher", 0.0)[0] == "worse"
    assert compare.verdict([0.98] * 3, [0.98] * 3, "higher", 0.0)[0] == "unchanged"
    assert compare.verdict([0.98, 0.97, 0.98], [0.98] * 3, "higher", 0.0)[0] == (
        "unresolved"
    )


def test_distinct_pair_recall_ignores_repeated_pairs():
    truth = frozenset({(0, 1), (2, 3), (4, 5), (6, 7)})
    # PPS style: each true pair comes once from either endpoint
    batches = [[(0, 1), (0, 1), (8, 9)], [(2, 3), (2, 3), (4, 5)], [(6, 7)]]
    recall = harness.distinct_pair_recall(batches, truth, target=0.75)
    assert recall.raw_hits == 6  # what a plain hit counter would report
    assert recall.recall == 1.0
    assert (recall.cmp_to_target, recall.pull_of_target) == (6, 1)
    partial = harness.distinct_pair_recall([[(0, 1), (0, 1)]], truth, target=0.5)
    assert partial.recall == 0.25 and partial.cmp_to_target is None


def test_stream_digest_is_order_and_weight_sensitive():
    stream = [[(0, 1, 0.5), (2, 3, 0.25)], [(4, 5, 0.125)]]
    same = [[(0, 1, 0.5)], [(2, 3, 0.25), (4, 5, 0.125)]]
    assert harness.stream_digest(stream) != harness.stream_digest(same[::-1])
    reweighted = [[(0, 1, 0.5), (2, 3, 0.25)], [(4, 5, 0.1250001)]]
    assert harness.stream_digest(stream) != harness.stream_digest(reweighted)
    assert harness.stream_digest(stream) == harness.stream_digest(
        json.loads(json.dumps(stream))
    )


def test_percentile_and_spread():
    assert harness.percentile([4, 1, 3, 2], 0.5) == 2.5
    assert harness.percentile([1, 2, 3], 0.95) == pytest.approx(2.9)
    assert harness.spread([10.0] * 10) == 0.0
