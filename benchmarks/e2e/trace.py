"""The traced run: one span per call into a layer, per-layer metrics.

Spans are recorded here, around the public calls each layer offers
(the backend seam of ``repro.contracts``, the reference functions of
``repro.blocking`` / ``repro.metablocking``, ``Resolver.cascade_stats``
and the service clients); nothing inside ``src/repro`` is instrumented.
End-to-end numbers never come from this run: each traced repeat is
paired with an untraced pass of the same input, ``trace.coverage`` says
how much of that pass the layer spans account for, and
``trace.overhead_ratio`` what recording them cost.

Each ``trace_*`` function owns a group of per-layer metrics and returns
them as a flat dict; timings are the median of the timed repeats, as in
the end-to-end run.
"""

from __future__ import annotations

import asyncio
import gc
import itertools
import os
import shutil
import time
from typing import Any

from benchmarks.e2e import harness, metrics, workloads

#: Timed repeats of the traced workload (after one warm-up).
TRACE_REPEATS = 3

#: Timed repeats of a cell (after one warm-up).
CELL_REPEATS = 1

#: Streamed pairs the reference weighting scheme is timed on.
WEIGHT_PAIRS = 50_000

#: Fixed knobs of the numpy-parallel cell, so it compares across machines.
PARALLEL_KNOBS = {"workers": 2, "shards": 4}


def _repeat_numbers(tracer: harness.Tracer, repeats: int):
    """-1 (warm-up), then 0..repeats-1; sets ``tracer.repeat`` as it goes."""
    for repeat in range(-1, repeats):
        tracer.repeat = repeat
        yield repeat
    tracer.repeat = -1


def _span_seconds(span: dict[str, Any]) -> float:
    return span["end"] - span["start"]


def span_overhead(tracer: harness.Tracer, workload: str) -> float:
    """Seconds one repeat of ``workload`` spent recording its spans.

    The traced run times the layers' public calls one after another
    instead of going through ``Resolver``, so it has no end-to-end time
    of its own to hold against the untraced one; what tracing adds is
    the bookkeeping of each span, measured here on an empty span.
    """
    scratch = harness.Tracer()
    began = time.perf_counter()
    for _ in range(1000):
        with scratch.span("empty"):
            pass
    per_span = (time.perf_counter() - began) / 1000
    spans = sum(
        1
        for span in tracer.spans
        if span["workload"] == workload and span["repeat"] == 0
    )
    return spans * per_span


# -- the CSR engine (batch-75k, hetero-movies) --------------------------------


def traced_backend(tracer: harness.Tracer, seen: dict[str, Any]) -> Any:
    """The numpy backend with a span around every seam call.

    The structures each call returns are left in ``seen`` so that they
    can be counted once the clock is off.
    """
    from repro.engine import NumpyBackend

    class TracedBackend(NumpyBackend):
        def blocking_substrate(self, store: Any, spec: Any) -> Any:
            with tracer.span("engine.substrate.sweep"):
                substrate = super().blocking_substrate(store, spec)
                # The sweep is lazy; force it here so that the grouping
                # span below times grouping alone.  token_rows() is the
                # public call that does, and it also sorts the rows into a
                # CSR no progressive method asks for: this span overstates
                # the sweep by about 8% of first_cmp_s on batch-75k.
                substrate.token_rows()
            seen["substrate"] = substrate
            return substrate

        def profile_index(self, collection: Any) -> Any:
            with tracer.span("engine.csr.group"):
                seen["index"] = super().profile_index(collection)
            return seen["index"]

        def blocking_graph(self, index: Any, weighting: str) -> Any:
            before = harness.proc_status_mb("self", "VmRSS")
            with tracer.span("engine.weights.graph"):
                seen["graph"] = super().blocking_graph(index, weighting)
            # The heap is kept between passes (see harness.run_worker), so
            # only the first build grows the resident set: keep the largest.
            seen["graph_rss_mb"] = max(
                seen.get("graph_rss_mb", 0.0),
                harness.proc_status_mb("self", "VmRSS") - before,
            )
            return seen["graph"]

    return TracedBackend()


def trace_engine(
    name: str, sizes: dict[str, Any], store: Any, tracer: harness.Tracer, repeats: int
) -> tuple[dict[str, Any], dict[str, Any]]:
    """Layer by layer what ``Resolver.initialize()`` does in one call.

    Also returns the untraced reference ``{"digest", "resolve_s"}`` the
    storage and parallel cells are compared with.
    """
    from repro.blocking.substrate import SubstrateSpec
    from repro.progressive import PBS, PPS

    method_class = PPS if name == "batch-75k" else PBS
    limit = sizes.get("budget")
    start = workloads.session_factory(name, sizes, store)
    seen: dict[str, Any] = {}
    counts: dict[str, Any] = {}
    backend = traced_backend(tracer, seen)
    untraced, emitted, digest = [], 0, ""
    for repeat in _repeat_numbers(tracer, repeats):
        if repeat >= 0:  # the traced pass below warms the same code
            done = workloads.timed_pass(start)
            done.resolver.close()
            untraced.append((done.stamps[0], done.stamps[-1]))
            if repeat == 0:
                digest = harness.stream_digest(done.batches)
            del done
        gc.collect()
        with tracer.span("engine.equality.core"):
            substrate = backend.blocking_substrate(store, SubstrateSpec())
            method = method_class(store, backend=backend, substrate=substrate)
            method.initialize()
            stream = iter(method)
            next(stream)
        with tracer.span("progressive.emit"):
            rest = None if limit is None else limit - 1
            emitted = 1 + len(list(itertools.islice(stream, rest)))
        _indptr, token_ids = substrate.token_rows()
        counts = {
            "engine.substrate.postings": len(token_ids),
            "engine.substrate.tokens": int(token_ids.max()) + 1,
            "engine.csr.blocks": seen["index"].block_count(),
            "engine.csr.assignments": len(seen["index"].bp_indices),
            "engine.weights.edges": len(seen["graph"].neighbors) // 2,
            "engine.weights.graph_rss_mb": seen["graph_rss_mb"],
        }
        # or the next untraced pass would build its graph beside this one
        del substrate, method, stream, token_ids
        for key in ("substrate", "index", "graph"):
            del seen[key]

    layers = {
        key: tracer.median_self_seconds(key, name)
        for key in (
            "engine.substrate.sweep",
            "engine.csr.group",
            "engine.weights.graph",
            "engine.equality.core",
            "progressive.emit",
        )
    }
    first = harness.median([first for first, _ in untraced])
    resolve = harness.median([resolve for _, resolve in untraced])
    init = sum(layers.values()) - layers["progressive.emit"]
    measured = {key + "_s": value for key, value in layers.items()}
    measured.update(counts)
    measured.update(
        {
            "progressive.emitted": emitted,
            "progressive.ns_per_cmp": 1e9 * layers["progressive.emit"] / emitted,
            "pipeline.overhead_s": first - init,
            "pipeline.pull_ns_per_cmp": 1e9
            * ((resolve - first) - layers["progressive.emit"])
            / emitted,
            "trace.coverage": init / first,
            "trace.overhead_ratio": span_overhead(tracer, name) / resolve,
        }
    )
    return measured, {"digest": digest, "resolve_s": resolve}


# -- cells: an engine workload's input on another configuration ---------------


def run_cell(spec: dict[str, Any]) -> dict[str, Any]:
    """Worker body of one cell, in its own process so its RSS is its own:
    the batch-75k input on memmap storage or on numpy-parallel, or
    hetero-movies unchanged (its process then has the default heap)."""
    import resource

    from repro import ERPipeline

    sizes = spec["sizes"]
    store, _truth = workloads.build_input(spec["workload"], sizes, spec["seed"])
    scratch = os.path.join(harness.out_dir(), f"scratch-{os.getpid()}")
    pull_size = sizes["pull"]
    scratch_mb = 0.0

    def start() -> tuple[Any, Any]:
        pipeline = ERPipeline().method("PPS")
        if spec["cell"] == "memmap":
            os.makedirs(scratch, exist_ok=True)
            pipeline = pipeline.backend("numpy").storage("memmap", dir=scratch)
        else:
            pipeline = pipeline.parallel(**PARALLEL_KNOBS)
        resolver = pipeline.fit(store)
        return resolver, lambda: resolver.next_batch(pull_size)

    if spec["cell"] == "fresh-heap":
        start = workloads.session_factory(spec["workload"], sizes, store)
    passes = []
    try:
        for repeat in range(-1, CELL_REPEATS):
            done = workloads.timed_pass(start)
            if spec["cell"] == "memmap":
                scratch_mb = harness.tree_mb(scratch)
            digest = harness.stream_digest(done.batches)
            done.resolver.close()
            if repeat >= 0:
                passes.append((done.stamps[0], done.stamps[-1]))
            del done
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    return {
        "first_cmp_s": harness.median([first for first, _ in passes]),
        "resolve_s": harness.median([resolve for _, resolve in passes]),
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "scratch_mb": scratch_mb,
        "digest": digest,
    }


def trace_cells(
    name: str, sizes: dict[str, Any], seed: int, reference: dict[str, Any]
) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The cells of an engine workload, each checked against its stream.

    ``reference`` is the untraced in-RAM, kept-heap run they are compared
    with: ``{"digest", "resolve_s"}``.
    """
    spec = {"workload": name, "sizes": sizes, "seed": seed}
    if name == "hetero-movies":
        fresh = harness.run_worker({"cell": "fresh-heap", **spec}, keep_heap=False)
        cells = {"fresh-heap": fresh}
        measured = {
            "engine.alloc.fresh_resolve_s": fresh["resolve_s"],
            "engine.alloc.fresh_first_cmp_s": fresh["first_cmp_s"],
            "engine.alloc.fresh_rss_mb": fresh["rss_mb"],
        }
    else:
        cells = {
            cell: harness.run_worker({"cell": cell, **spec})
            for cell in ("memmap", "parallel")
        }
        memmap, parallel = cells["memmap"], cells["parallel"]
        measured = {
            "engine.storage.memmap_resolve_s": memmap["resolve_s"],
            "engine.storage.memmap_first_cmp_s": memmap["first_cmp_s"],
            "engine.storage.memmap_rss_mb": memmap["rss_mb"],
            "engine.storage.scratch_mb": memmap["scratch_mb"],
            "parallel.resolve_s": parallel["resolve_s"],
            "parallel.first_cmp_s": parallel["first_cmp_s"],
            "parallel.speedup": reference["resolve_s"] / parallel["resolve_s"],
        }
    checks = [
        {
            "check": f"{cell} stream == {name} stream",
            "ok": result["digest"] == reference["digest"],
        }
        for cell, result in cells.items()
    ]
    return measured, checks


# -- the reference path (ref-movies-python) ------------------------------------


def trace_reference(
    name: str, sizes: dict[str, Any], store: Any, tracer: harness.Tracer, repeats: int
) -> dict[str, Any]:
    """``repro.blocking`` -> ``repro.metablocking`` -> reference PBS."""
    from repro.blocking.scheduling import block_scheduling
    from repro.blocking.workflow import blocking_workflow
    from repro.metablocking.profile_index import ProfileIndex
    from repro.metablocking.weights import make_scheme
    from repro.progressive import PBS

    start = workloads.session_factory(name, sizes, store)
    untraced, weight_ns = [], []
    counts: dict[str, Any] = {}
    for repeat in _repeat_numbers(tracer, repeats):
        done = workloads.timed_pass(start)
        done.resolver.close()
        if repeat >= 0:
            untraced.append((done.stamps[0], done.stamps[-1]))
        del done
        gc.collect()
        with tracer.span("blocking.workflow"):
            blocks = blocking_workflow(store)
        with tracer.span("progressive.pbs.init"):
            # PBS schedules and indexes the blocks again inside; the
            # two spans further down time those steps on their own.
            method = PBS(store, blocks=blocks, backend="python")
            method.initialize()
            stream = iter(method)
            first = next(stream)
        with tracer.span("progressive.pbs.emit"):
            streamed = [first]
            streamed.extend(itertools.islice(stream, sizes["budget"] - 1))
        with tracer.span("blocking.scheduling"):
            scheduled = block_scheduling(blocks)
        with tracer.span("metablocking.index"):
            index = ProfileIndex(scheduled)
        scheme = make_scheme("ARCS", index)
        pairs = [(c.i, c.j) for c in streamed[:WEIGHT_PAIRS]]
        began = time.perf_counter()
        for i, j in pairs:
            scheme.weight(i, j)
        weight_ns.append(1e9 * (time.perf_counter() - began) / len(pairs))
        counts = {
            "blocking.blocks": len(blocks),
            "blocking.comparisons": blocks.aggregate_cardinality(),
            "emitted": len(streamed),
        }
        del streamed, pairs, method, stream, blocks

    layers = {
        key: tracer.median_self_seconds(key, name)
        for key in (
            "blocking.workflow",
            "blocking.scheduling",
            "metablocking.index",
            "progressive.pbs.init",
            "progressive.pbs.emit",
        )
    }
    emitted = counts.pop("emitted")
    first_s = harness.median([first for first, _ in untraced])
    resolve_s = harness.median([resolve for _, resolve in untraced])
    init = layers["blocking.workflow"] + layers["progressive.pbs.init"]
    measured = {key + "_s": value for key, value in layers.items()}
    measured.update(counts)
    measured.update(
        {
            "metablocking.weight_ns_per_pair": harness.median(weight_ns[1:]),
            "progressive.pbs.ns_per_cmp": 1e9
            * layers["progressive.pbs.emit"]
            / emitted,
            "trace.coverage": init / first_s,
            "trace.overhead_ratio": span_overhead(tracer, name) / resolve_s,
        }
    )
    return measured


# -- the decision cascade (decide-cddb) ----------------------------------------


def trace_matching(
    name: str, sizes: dict[str, Any], store: Any, tracer: harness.Tracer, repeats: int
) -> dict[str, Any]:
    """What deciding adds to streaming, and where the cascade spends it."""
    decided_start = workloads.session_factory(name, sizes, store)
    plain_start = workloads.session_factory(name, sizes, store, check=True)
    stats: dict[str, Any] = {}
    untraced = []
    for repeat in _repeat_numbers(tracer, repeats):
        with tracer.span("matching.stream"):
            plain = workloads.timed_pass(plain_start)
        plain.resolver.close()
        with tracer.span("matching.decide"):
            decided = workloads.timed_pass(decided_start)
        stats = decided.resolver.cascade_stats()
        decided.resolver.close()
        if repeat >= 0:
            untraced.append((decided.stamps[-1], stats["tiers"]))
        del plain, decided

    measured: dict[str, Any] = {}
    costs = {}
    for position, tier in enumerate(stats["tiers"]):
        stem = f"matching.{tier['name']}"
        measured[stem + ".evaluated"] = tier["evaluated"]
        measured[stem + ".decided"] = tier["decided"]
        costs[tier["name"]] = harness.median(
            [tiers[position]["cost_seconds"] for _, tiers in untraced]
        )
        # The batch matcher evaluates exact and jaccard in one vectorised
        # pass and books all of it to ``exact``: jaccard's cost reads 0.0
        # on every run, which is a constant, not a measurement.
        if tier["name"] != "jaccard":
            measured[stem + ".cost_s"] = costs[tier["name"]]
    by_name = {tier["name"]: tier for tier in stats["tiers"]}
    edit = by_name["edit-distance"]
    streamed = tracer.median_self_seconds("matching.stream", name)
    decided_s = tracer.median_self_seconds("matching.decide", name)
    measured.update(
        {
            "matching.edit-distance.ms_per_pair": 1e3
            * measured["matching.edit-distance.cost_s"]
            / max(1, edit["evaluated"]),
            "matching.decide_s": decided_s - streamed,
            "matching.fastpath_share": (
                by_name["exact"]["decided"] + by_name["jaccard"]["decided"]
            )
            / max(1, by_name["exact"]["evaluated"]),
            # How much of a decided run the plain stream plus the
            # cascade's own cost counters account for.
            "trace.coverage": (streamed + sum(costs.values())) / decided_s,
            "trace.overhead_ratio": span_overhead(tracer, name)
            / harness.median([resolve for resolve, _ in untraced]),
        }
    )
    return measured


# -- incremental + service (serve-mixed) ---------------------------------------


async def _probe_ms(client: Any, session: str, probes: list) -> list[float]:
    latencies = []
    for record in probes:
        began = time.perf_counter()
        await client.probe(session, [record])
        latencies.append(1e3 * (time.perf_counter() - began))
    return latencies


async def _trace_served(
    host: str,
    port: int,
    snapshot_dir: str,
    seed_records: list,
    probes: list,
    tracer: harness.Tracer,
) -> dict[str, Any]:
    """One client, one request at a time, against the served process."""
    from repro.service import HTTPClient

    async with HTTPClient(host, port) as client:
        with tracer.span("service.create") as create:
            await client.create_session("traced", seed_records)
        await _probe_ms(client, "traced", probes[:200])  # warm the path
        with tracer.span("service.http.probe"):
            http_ms = await _probe_ms(client, "traced", probes)
        view = await client.session_metrics("traced")
        with tracer.span("service.snapshot.save") as save:
            await client.snapshot("traced")
        with tracer.span("service.snapshot.restore") as restore:
            await client.restore_session("traced-restored", "traced")
    return {
        "service.create_s": _span_seconds(create),
        "service.http.probe_p50_ms": harness.percentile(http_ms, 0.5),
        "service.server.probe_p50_ms": 1e3 * view["probe_latency_p50"],
        "service.admission.rejected": view["rejected"],
        "service.snapshot.save_s": _span_seconds(save),
        "service.snapshot.restore_s": _span_seconds(restore),
        "service.snapshot.mb": harness.tree_mb(
            os.path.join(snapshot_dir, "traced")
        ),
    }


def trace_service(
    name: str, sizes: dict[str, Any], seed: int, tracer: harness.Tracer
) -> dict[str, Any]:
    """A probe's cost at each depth: resolver, session, HTTP."""
    from repro import ERPipeline
    from repro.service import HTTPClient, InProcessClient, SessionManager

    began = time.perf_counter()
    data = workloads.serve_input(sizes, seed)
    generate_s = time.perf_counter() - began
    seed_records, records = data["seed_records"], data["records"]
    probes = [records[what] for kind, what in data["ops"] if kind == "probe"]
    ingests = [
        [records[i] for i in what] for kind, what in data["ops"] if kind == "ingest"
    ]
    tracer.repeat = 0

    # the resolver alone
    resolver = ERPipeline().serve().fit(seed_records)
    for record in probes[:200]:
        resolver.resolve_one(record, ingest=False)
    with tracer.span("incremental.probe"):
        direct_ms = []
        for record in probes:
            began = time.perf_counter()
            resolver.resolve_one(record, ingest=False)
            direct_ms.append(1e3 * (time.perf_counter() - began))
    with tracer.span("incremental.ingest") as ingest:
        emitted = sum(len(resolver.add_profiles(batch)) for batch in ingests)
    resolver.close()

    # behind a session: lock, admission, pool hop - no socket
    async def in_session() -> list[float]:
        with SessionManager(ERPipeline().serve()) as manager:
            client = InProcessClient(manager)
            await client.create_session("traced", seed_records)
            await _probe_ms(client, "traced", probes[:200])
            with tracer.span("service.session.probe"):
                return await _probe_ms(client, "traced", probes)

    session_ms = asyncio.run(in_session())

    # behind the HTTP front-end, in its own process
    async def untraced_loop(host: str, port: int) -> dict[str, Any]:
        async with HTTPClient(host, port) as client:
            await client.create_session("untraced", seed_records)
        loop = await workloads.closed_loop(
            host, port, "untraced", data, data["ops"], sizes
        )
        async with HTTPClient(host, port) as client:
            await client.delete_session("untraced")
        return loop["metrics"]

    with workloads.service() as (_proc, host, port, snapshot_dir):
        untraced = asyncio.run(untraced_loop(host, port))
        served = asyncio.run(
            _trace_served(host, port, snapshot_dir, seed_records, probes, tracer)
        )
    tracer.repeat = -1

    direct = harness.percentile(direct_ms, 0.5)
    session = harness.percentile(session_ms, 0.5)
    http = served["service.http.probe_p50_ms"]
    n_ingested = sum(len(batch) for batch in ingests)
    measured = dict(served)
    measured.update(
        {
            "datasets.generate_s": generate_s,
            "datasets.profiles": len(records),
            "incremental.probe_p50_ms": direct,
            "incremental.ingest_profiles_per_s": n_ingested
            / _span_seconds(ingest),
            "incremental.emitted": emitted,
            "service.session.probe_p50_ms": session,
            "service.session.overhead_ms": session - direct,
            "service.http.overhead_ms": http - session,
            "service.transport_share": 1.0
            - served["service.server.probe_p50_ms"] / http,
            # One sequential client against the workload's two: the share
            # of a loaded probe's latency that is not waiting behind the
            # other connection.
            "trace.coverage": http / untraced["op_p50_ms"],
            "trace.overhead_ratio": span_overhead(tracer, name)
            / untraced["resolve_s"],
        }
    )
    return measured


# -- one traced run ------------------------------------------------------------


def trace_workload(
    name: str, sizes: dict[str, Any], seed: int, repeats: int
) -> dict[str, Any]:
    """The traced run of one workload: the per-layer metrics it owns,
    over ``repeats`` traced repeats after one warm-up, and its spans."""
    tracer = harness.Tracer()
    tracer.workload = name
    checks: list[dict[str, Any]] = []
    if name == "serve-mixed":
        measured = trace_service(name, sizes, seed, tracer)
    else:
        began = time.perf_counter()
        store, _truth = workloads.build_input(name, sizes, seed)
        generated = {
            "datasets.generate_s": time.perf_counter() - began,
            "datasets.profiles": len(store),
        }
        if name in metrics.ENGINE:
            measured, reference = trace_engine(name, sizes, store, tracer, repeats)
            del store  # the cells build their own copy, in their own process
            cells, checks = trace_cells(name, sizes, seed, reference)
            measured.update(cells)
        elif name == "ref-movies-python":
            measured = trace_reference(name, sizes, store, tracer, repeats)
        else:
            measured = trace_matching(name, sizes, store, tracer, repeats)
        measured.update(generated)
    return {
        "metrics": measured,
        "spans": tracer.spans,
        "checks": checks,
        "attempted": len(tracer.spans) + len(checks),
        "failed": sum(1 for check in checks if not check["ok"]),
    }
