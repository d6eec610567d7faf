"""The metric names: unit, direction, bound and the workloads that own each.

A metric is measured, printed, stored and compared only on the
workloads that own it - never as a filler value elsewhere.  The driver,
on the other hand, wants every metric ``BENCHMARK.json`` lists from
every workload, so that file lists exactly the metrics here that all
five workloads own (:func:`universal`); the rest reach the result files
and ``compare.py``, with the bounds below.
"""

from __future__ import annotations

from typing import NamedTuple

ENGINE = ("batch-75k", "hetero-movies")
BATCH = ENGINE + ("ref-movies-python", "decide-cddb")
WORKLOADS = BATCH + ("serve-mixed",)


class Metric(NamedTuple):
    unit: str
    better: str
    #: share of the base median by which it may worsen; 0 means exactly
    bound: float
    owners: tuple[str, ...]


def _timing(unit: str, owners: tuple[str, ...], better: str = "lower") -> Metric:
    return Metric(unit, better, 0.10, owners)


END_TO_END: dict[str, Metric] = {
    "setup_s": _timing("s", WORKLOADS),
    "resolve_s": _timing("s", WORKLOADS),
    "first_cmp_s": _timing("s", ENGINE),
    "t_recall_s": _timing("s", BATCH),
    "cmp_per_s": _timing("1/s", BATCH, "higher"),
    "op_p50_ms": _timing("ms", ENGINE + ("ref-movies-python", "serve-mixed")),
    "op_p95_ms": _timing("ms", ENGINE + ("ref-movies-python", "serve-mixed")),
    "ingest_p50_ms": _timing("ms", ("serve-mixed",)),
    "ops_per_s": _timing("1/s", ("serve-mixed",), "higher"),
    "recall": Metric("ratio", "higher", 0.0, WORKLOADS),
    "cmp_to_recall": Metric("count", "lower", 0.0, BATCH),
    "decision_f1": Metric("ratio", "higher", 0.0, ("decide-cddb",)),
    "peak_rss_mb": Metric("MB", "lower", 0.05, WORKLOADS),
    "failed_ops_ratio": Metric("ratio", "lower", 0.0, WORKLOADS),
}

#: Two clients interleave ingests and probes on ``serve-mixed``, so which
#: ingests a probe sees varies from run to run.
BOUND_OVERRIDES = {("serve-mixed", "recall"): 0.01}


def _layers(
    owners: tuple[str, ...], *names_units_better: tuple[str, str, str]
) -> dict[str, Metric]:
    return {
        name: Metric(unit, better, 0.0, owners)
        for name, unit, better in names_units_better
    }


PER_LAYER: dict[str, Metric] = {
    **_layers(
        WORKLOADS,
        ("datasets.generate_s", "s", "lower"),
        ("datasets.profiles", "count", "higher"),
        ("trace.coverage", "ratio", "higher"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ),
    **_layers(
        ENGINE,
        ("engine.substrate.sweep_s", "s", "lower"),
        ("engine.substrate.tokens", "count", "lower"),
        ("engine.substrate.postings", "count", "lower"),
        ("engine.csr.group_s", "s", "lower"),
        ("engine.csr.blocks", "count", "lower"),
        ("engine.csr.assignments", "count", "lower"),
        ("engine.weights.graph_s", "s", "lower"),
        ("engine.weights.edges", "count", "lower"),
        ("engine.weights.graph_rss_mb", "MB", "lower"),
        ("engine.equality.core_s", "s", "lower"),
        ("progressive.emit_s", "s", "lower"),
        ("progressive.emitted", "count", "higher"),
        ("progressive.ns_per_cmp", "ns", "lower"),
        ("pipeline.overhead_s", "s", "lower"),
        ("pipeline.pull_ns_per_cmp", "ns", "lower"),
    ),
    **_layers(
        ("batch-75k",),
        ("engine.storage.memmap_resolve_s", "s", "lower"),
        ("engine.storage.memmap_first_cmp_s", "s", "lower"),
        ("engine.storage.memmap_rss_mb", "MB", "lower"),
        ("engine.storage.scratch_mb", "MB", "lower"),
        ("parallel.resolve_s", "s", "lower"),
        ("parallel.first_cmp_s", "s", "lower"),
        ("parallel.speedup", "ratio", "higher"),
    ),
    **_layers(
        ("hetero-movies",),
        ("engine.alloc.fresh_resolve_s", "s", "lower"),
        ("engine.alloc.fresh_first_cmp_s", "s", "lower"),
        ("engine.alloc.fresh_rss_mb", "MB", "lower"),
    ),
    **_layers(
        ("ref-movies-python",),
        ("blocking.workflow_s", "s", "lower"),
        ("blocking.blocks", "count", "lower"),
        ("blocking.comparisons", "count", "lower"),
        ("blocking.scheduling_s", "s", "lower"),
        ("metablocking.index_s", "s", "lower"),
        ("metablocking.weight_ns_per_pair", "ns", "lower"),
        ("progressive.pbs.init_s", "s", "lower"),
        ("progressive.pbs.emit_s", "s", "lower"),
        ("progressive.pbs.ns_per_cmp", "ns", "lower"),
    ),
    **_layers(
        ("decide-cddb",),
        ("matching.exact.evaluated", "count", "lower"),
        ("matching.exact.decided", "count", "higher"),
        ("matching.exact.cost_s", "s", "lower"),
        ("matching.jaccard.evaluated", "count", "lower"),
        ("matching.jaccard.decided", "count", "higher"),
        ("matching.edit-distance.evaluated", "count", "lower"),
        ("matching.edit-distance.decided", "count", "higher"),
        ("matching.edit-distance.cost_s", "s", "lower"),
        ("matching.edit-distance.ms_per_pair", "ms", "lower"),
        ("matching.decide_s", "s", "lower"),
        ("matching.fastpath_share", "ratio", "higher"),
    ),
    **_layers(
        ("serve-mixed",),
        ("incremental.ingest_profiles_per_s", "1/s", "higher"),
        ("incremental.emitted", "count", "higher"),
        ("incremental.probe_p50_ms", "ms", "lower"),
        ("service.server.probe_p50_ms", "ms", "lower"),
        ("service.session.probe_p50_ms", "ms", "lower"),
        ("service.http.probe_p50_ms", "ms", "lower"),
        ("service.session.overhead_ms", "ms", "lower"),
        ("service.http.overhead_ms", "ms", "lower"),
        ("service.transport_share", "ratio", "lower"),
        ("service.admission.rejected", "count", "lower"),
        ("service.create_s", "s", "lower"),
        ("service.snapshot.save_s", "s", "lower"),
        ("service.snapshot.restore_s", "s", "lower"),
        ("service.snapshot.mb", "MB", "lower"),
    ),
}


def table(traced: bool) -> dict[str, Metric]:
    return PER_LAYER if traced else END_TO_END


def owned(workload: str, traced: bool) -> set[str]:
    """The metrics a (traced) run of ``workload`` must measure, all of them."""
    return {
        name for name, metric in table(traced).items() if workload in metric.owners
    }


def universal(traced: bool) -> list[str]:
    """The metrics every workload owns: what ``BENCHMARK.json`` may list.

    ``failed_ops_ratio`` is 0 on a healthy run and the contract takes no
    metric that is ever 0; the driver gets it as ``failed`` / ``attempted``.
    """
    return [
        name
        for name, metric in table(traced).items()
        if set(metric.owners) == set(WORKLOADS) and name != "failed_ops_ratio"
    ]


def bound(workload: str, name: str) -> float:
    return BOUND_OVERRIDES.get((workload, name), END_TO_END[name].bound)
