"""The five workloads: frozen sizes, seeded inputs and the untraced runs.

Every batch workload follows one shape.  Inputs are generated from the
seed and materialised, one untimed full-size warm-up pass runs (both
count as set-up), then ``repeats`` timed passes run with a
``gc.collect()`` before each.  A pass starts its clock before ``fit()``
and takes one ``perf_counter()`` per pull; pulled batches are retained
and only after the clock stops does the harness digest them and compute
recall.  Every reported timing is the median of the timed passes; the
raw per-pass values are printed and stored next to it.

On ``serve-mixed`` a pass is a fresh served session and one closed loop
over the operation list.

The program under test receives the generated profiles and nothing
else: no seed, and no ground truth (recall is computed here, from the
retained stream, against a truth set the program never saw).
"""

from __future__ import annotations

import asyncio
import gc
import hashlib
import itertools
import os
import random
import resource
import shutil
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from typing import Any, Callable, Iterator, NamedTuple

from benchmarks.e2e import harness, metrics

#: ``--seconds`` at which a run makes ``REPEATS`` timed passes
#: (``BENCHMARK.json``'s ``run_seconds``); other values scale the count.
RUN_SECONDS = 20.0
REPEATS = 5

#: Frozen full sizes.  ``pull`` is the batch size of one client pull.
FULL: dict[str, dict[str, Any]] = {
    "batch-75k": {"profiles": 75_000, "pull": 1000},
    "hetero-movies": {"scale": 0.2, "budget": 450_000, "pull": 1000},
    "ref-movies-python": {"scale": 0.2, "budget": 450_000, "pull": 1000},
    "decide-cddb": {"scale": 0.5, "budget": 8000, "pull": 1000},
    "serve-mixed": {
        "seed_profiles": 20_000,
        "corpus": 80_000,
        "ops": 6000,
        "clients": 2,
        "ingest_share": 0.1,
        "ingest_batch": 5,
        "top_k": 10,
        "stream_check": 20_000,
    },
}

#: About 1/20 of the full sizes: exercises every code path in seconds.
SMOKE: dict[str, dict[str, Any]] = {
    "batch-75k": {"profiles": 4000, "pull": 1000},
    "hetero-movies": {"scale": 0.01, "budget": 25_000, "pull": 1000},
    "ref-movies-python": {"scale": 0.01, "budget": 25_000, "pull": 1000},
    "decide-cddb": {"scale": 0.02, "budget": 200, "pull": 50},
    "serve-mixed": {
        "seed_profiles": 1000,
        "corpus": 4000,
        "ops": 300,
        "clients": 2,
        "ingest_share": 0.1,
        "ingest_batch": 5,
        "top_k": 10,
        "stream_check": 1000,
    },
}

#: Pulls of the engine's stream that ``hetero-movies`` replays on the
#: reference backend to check parity (the whole stream takes the
#: reference path a full pass; a prefix of a best-first stream does not
#: depend on the budget).
PARITY_PULLS = 100


def repeats_for(seconds: float) -> int:
    """Timed passes that fit ``seconds`` of measuring (at least 2)."""
    return max(2, round(REPEATS * seconds / RUN_SECONDS))


# -- inputs --------------------------------------------------------------------


def build_input(name: str, sizes: dict[str, Any], seed: int) -> tuple[Any, Any]:
    """``(store, truth)`` of a batch workload, materialised in memory."""
    from repro.core.ground_truth import GroundTruth
    from repro.core.profiles import EntityProfile, ProfileStore
    from repro.datasets import load_dataset
    from repro.datasets.synthetic import generate_synthetic

    if name == "batch-75k":
        data = generate_synthetic(n_profiles=sizes["profiles"], seed=seed)
        # The generator's store builds profiles lazily, chunk by chunk;
        # materialise it so profile generation stays out of the timed path.
        store = ProfileStore(list(data.store), data.store.er_type)
        return store, data.ground_truth
    if name in ("hetero-movies", "ref-movies-python"):
        data = load_dataset("movies", scale=sizes["scale"], seed=seed)
        return data.store, data.ground_truth
    if name == "decide-cddb":
        # The edit-distance tier spends its time on ~150 pairs whose cost
        # is heavy-tailed (one pair is 14% of the total on generator seed
        # 0), so a fresh generator seed moves resolve_s by 15% between its
        # quartiles.  The corpus is therefore fixed
        # (generator seed 0) and the seed relabels it: same records, new
        # ids and arrival order, so blocks, ties and digests all change.
        data = load_dataset("cddb", scale=sizes["scale"], seed=0)
        order = list(range(len(data.store)))
        random.Random(seed).shuffle(order)
        new_id = {old: new for new, old in enumerate(order)}
        store = ProfileStore(
            [
                EntityProfile(new, data.store[old].pairs, data.store[old].source)
                for new, old in enumerate(order)
            ],
            data.store.er_type,
        )
        truth = GroundTruth(
            (new_id[i], new_id[j]) for i, j in data.ground_truth.pairs
        )
        return store, truth
    raise ValueError(f"no batch input for workload {name!r}")


def session_factory(
    name: str, sizes: dict[str, Any], store: Any, check: bool = False
) -> Callable[[], tuple[Any, Callable[[], list]]]:
    """``start() -> (resolver, pull)``: the calls one timed pass makes.

    ``check=True`` gives the session the correctness gate compares a
    workload with instead: the reference backend on a prefix of the
    budget for ``hetero-movies``, the undecided stream for
    ``decide-cddb``.
    """
    from repro import ERPipeline

    pull_size = sizes["pull"]

    def plain(pipeline: Any) -> tuple[Any, Callable[[], list]]:
        resolver = pipeline.fit(store)
        return resolver, lambda: resolver.next_batch(pull_size)

    if name == "batch-75k":
        return lambda: plain(ERPipeline().method("PPS").backend("numpy"))
    if name in ("hetero-movies", "ref-movies-python"):
        backend = "numpy" if name == "hetero-movies" and not check else "python"
        budget = PARITY_PULLS * pull_size if check else sizes["budget"]
        return lambda: plain(
            ERPipeline().method("PBS").backend(backend).budget(comparisons=budget)
        )
    if name == "decide-cddb" and check:
        return lambda: plain(
            ERPipeline()
            .method("PPS")
            .backend("numpy")
            .budget(comparisons=sizes["budget"])
        )
    if name == "decide-cddb":

        def decided() -> tuple[Any, Callable[[], list]]:
            resolver = (
                ERPipeline()
                .method("PPS")
                .backend("numpy")
                .budget(comparisons=sizes["budget"])
                .match()
                .fit(store)
            )
            stream = resolver.resolve_stream(decide=True)
            return resolver, lambda: list(itertools.islice(stream, pull_size))

        return decided
    raise ValueError(f"no session for workload {name!r}")


# -- the batch workloads -------------------------------------------------------


class Pass(NamedTuple):
    resolver: Any
    batches: list[list]
    #: seconds since the pass started, one per pull (the last pull is the
    #: empty one that found the stream dry or the budget spent)
    stamps: list[float]


def timed_pass(start: Callable[[], tuple[Any, Callable[[], list]]]) -> Pass:
    """One pass: ``fit()``, then pull until a pull comes back empty."""
    batches: list[list] = []
    stamps: list[float] = []
    gc.collect()
    began = time.perf_counter()
    resolver, pull = start()
    while True:
        batch = pull()
        stamps.append(time.perf_counter())
        if not batch:
            break
        batches.append(batch)
    return Pass(resolver, batches, [stamp - began for stamp in stamps])


def comparisons_of(batch: list) -> list:
    """The ``(i, j, weight)`` tuples of a pulled batch (decided or not)."""
    if batch and hasattr(batch[0], "comparison"):
        return [record.comparison for record in batch]
    return batch


def decision_digest(batches: list[list]) -> str | None:
    """Digest of the (decision, tier, similarity) column, if decided."""
    if not batches or not hasattr(batches[0][0], "comparison"):
        return None
    digest = hashlib.blake2b(digest_size=16)
    for batch in batches:
        digest.update(
            repr([(r.decision, r.tier, r.similarity) for r in batch]).encode()
        )
    return digest.hexdigest()


def summarise_stream(done: Pass, truth: Any = None) -> dict[str, Any]:
    """What a pass emitted: digests and counts, and with a ``truth`` the
    recall curve and decision quality.  Runs off the clock."""
    streams = [comparisons_of(batch) for batch in done.batches]
    summary: dict[str, Any] = {
        "digest": harness.stream_digest(streams),
        "emitted": sum(len(batch) for batch in streams),
        "first_batch": len(streams[0]) if streams else 0,
        "pulls": len(streams),
        "decision_digest": decision_digest(done.batches),
    }
    if truth is not None:
        recall = harness.distinct_pair_recall(
            (
                [(c[0], c[1]) if c[0] < c[1] else (c[1], c[0]) for c in batch]
                for batch in streams
            ),
            truth.pairs,
        )
        summary.update(
            prefix_digest=harness.stream_digest(streams[:PARITY_PULLS]),
            recall=recall.recall,
            cmp_to_recall=recall.cmp_to_target,
            pull_of_recall=recall.pull_of_target,
            raw_hits=recall.raw_hits,
        )
        if summary["decision_digest"] is not None:
            summary["decision_f1"] = done.resolver.decision_quality(truth).f1
    return summary


def pass_timings(stamps: list[float], reference: dict[str, Any]) -> dict[str, Any]:
    """The end-to-end timings of one pass, from its pull stamps."""
    pulls = reference["pulls"]
    first, resolve = stamps[0], stamps[-1]
    ops = [stamps[k] - stamps[k - 1] for k in range(1, pulls)]
    return {
        "resolve_s": resolve,
        "first_cmp_s": first,
        "t_recall_s": stamps[reference["pull_of_recall"]],
        "cmp_per_s": (reference["emitted"] - reference["first_batch"])
        / (resolve - first),
        "op_p50_ms": 1e3 * harness.percentile(ops, 0.50),
        "op_p95_ms": 1e3 * harness.percentile(ops, 0.95),
        "op_samples": len(ops),
    }


def run_batch(
    name: str, sizes: dict[str, Any], seed: int, repeats: int, started: float
) -> dict[str, Any]:
    store, truth = build_input(name, sizes, seed)
    start = session_factory(name, sizes, store)

    warm = timed_pass(start)
    setup_s = time.perf_counter() - started
    # One pass in a fresh process: the memory a single resolve needs.
    # Later passes only add what the kept heap could not reuse (on
    # hetero-movies 859-916 MB over ten runs, against 840-859 MB here).
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    reference = summarise_stream(warm, truth)
    warm.resolver.close()
    del warm
    if reference["pull_of_recall"] is None:
        raise RuntimeError(
            f"{name}: recall {reference['recall']:.3f} never reached "
            f"{harness.RECALL_TARGET}; t_recall_s is undefined"
        )

    checks: list[dict[str, Any]] = []
    timings: list[dict[str, Any]] = []
    attempted = failed = 0
    for repeat in range(repeats):
        done = timed_pass(start)
        summary = summarise_stream(done)
        done.resolver.close()
        attempted += len(done.stamps) + 1  # its pulls, and its digest check
        same = all(
            summary[key] == reference[key]
            for key in ("digest", "emitted", "decision_digest")
        )
        if not same:
            failed += 1
        checks.append({"check": f"repeat {repeat} stream == warm-up", "ok": same})
        timings.append(pass_timings(done.stamps, reference))
        del done

    if name in ("hetero-movies", "decide-cddb"):
        other = timed_pass(session_factory(name, sizes, store, check=True))
        digest = summarise_stream(other)["digest"]
        other.resolver.close()
        if name == "hetero-movies":
            label = f"first {PARITY_PULLS} pulls == reference backend's"
            same = digest == reference["prefix_digest"]
        else:
            label = "decided comparisons == undecided ranked stream"
            same = digest == reference["digest"]
        attempted += 1
        failed += 0 if same else 1
        checks.append({"check": label, "ok": same})

    owned = metrics.owned(name, traced=False)
    raw = {key: [t[key] for t in timings] for key in timings[0] if key in owned}
    measured = {key: harness.median(values) for key, values in raw.items()}
    measured.update(
        setup_s=setup_s,
        recall=reference["recall"],
        cmp_to_recall=reference["cmp_to_recall"],
        peak_rss_mb=peak_rss_mb,
    )
    if "decision_f1" in owned:
        measured["decision_f1"] = reference["decision_f1"]
    samples = {}
    if "op_p50_ms" in owned:
        samples["op"] = sum(t["op_samples"] for t in timings)
    return {
        "metrics": measured,
        "raw": raw,
        "samples": samples,
        "reference": reference,
        "profiles": len(store),
        "truth_pairs": len(truth.pairs),
        "checks": checks,
        "attempted": attempted,
        "failed": failed,
    }


# -- serve-mixed ---------------------------------------------------------------


def boot_server(snapshot_dir: str) -> tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro.service``; wait for its serving line."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--snapshot-dir", snapshot_dir],
        stdout=subprocess.PIPE,
        text=True,
    )
    assert proc.stdout is not None
    line = proc.stdout.readline().strip()
    prefix = "serving on http://"
    if not line.startswith(prefix):
        stop_server(proc)
        raise RuntimeError(f"service failed to boot: {line!r}")
    host, port = line[len(prefix):].rsplit(":", 1)
    return proc, host, int(port)


@contextmanager
def service() -> Iterator[tuple[subprocess.Popen, str, int, str]]:
    """A served process and its snapshot directory, both gone on exit.

    With two cores the server gets one and this process, the load
    generator, the other.  Left to the scheduler, a run settles into one
    of two placements whose closed-loop throughput differs by 40%
    (13.2-14.2 s against 18.1-20.5 s for the same 30,000 operations).
    """
    snapshot_dir = os.path.join(harness.out_dir(), f"snapshots-{os.getpid()}")
    os.makedirs(snapshot_dir, exist_ok=True)
    proc = None
    try:
        proc, host, port = boot_server(snapshot_dir)
        cpus = sorted(os.sched_getaffinity(0))
        if len(cpus) >= 2:
            os.sched_setaffinity(proc.pid, {cpus[0]})
            os.sched_setaffinity(0, {cpus[1]})
        yield proc, host, port, snapshot_dir
    finally:
        if proc is not None:
            stop_server(proc)
        shutil.rmtree(snapshot_dir, ignore_errors=True)


def stop_server(proc: subprocess.Popen) -> None:
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
    if proc.stdout is not None:
        proc.stdout.close()


def serve_input(sizes: dict[str, Any], seed: int) -> dict[str, Any]:
    """Seed records, and one fixed, seeded operation list.

    The corpus is one synthetic generation.  The session is seeded with
    one member (the lowest id) of every duplicate cluster, topped up to
    ``seed_profiles`` with records that have no duplicate.  A probe is
    another member of a seeded cluster, so every probe has a duplicate
    to find; an ingest is ``ingest_batch`` records that have none.
    """
    from repro.datasets.synthetic import generate_synthetic

    data = generate_synthetic(n_profiles=sizes["corpus"], seed=seed)
    records = [
        [[attribute, value] for attribute, value in profile.pairs]
        for profile in data.store
    ]
    n_seed = sizes["seed_profiles"]
    clusters = sorted(sorted(cluster) for cluster in data.ground_truth.clusters)
    clusters = clusters[:n_seed]
    clustered = {member for cluster in clusters for member in cluster}
    singles = (i for i in range(len(records)) if i not in clustered)
    seed_ids = sorted(
        [cluster[0] for cluster in clusters]
        + list(itertools.islice(singles, n_seed - len(clusters)))
    )
    # a session numbers its profiles in arrival order
    session_id = {corpus_id: position for position, corpus_id in enumerate(seed_ids)}
    targets = {
        member: session_id[cluster[0]]
        for cluster in clusters
        for member in cluster[1:]
    }
    rng = random.Random(seed)
    n_ingests = round(sizes["ops"] * sizes["ingest_share"])
    kinds = ["ingest"] * n_ingests + ["probe"] * (sizes["ops"] - n_ingests)
    rng.shuffle(kinds)
    candidates = sorted(targets)
    fresh = list(itertools.islice(singles, n_ingests * sizes["ingest_batch"]))
    if len(fresh) < n_ingests * sizes["ingest_batch"]:
        raise RuntimeError("corpus too small for the ingest share")
    fresh_iter = iter(fresh)
    ops: list[tuple[str, Any]] = []
    for kind in kinds:
        if kind == "probe":
            ops.append(("probe", rng.choice(candidates)))
        else:
            ops.append(
                ("ingest", list(itertools.islice(fresh_iter, sizes["ingest_batch"])))
            )
    return {
        "records": records,
        "seed_records": [records[i] for i in seed_ids],
        "targets": targets,
        "ops": ops,
    }


async def closed_loop(
    host: str,
    port: int,
    session: str,
    data: dict[str, Any],
    ops: list[tuple[str, Any]],
    sizes: dict[str, Any],
) -> dict[str, Any]:
    """Run ``ops`` against a session, once.

    ``clients`` keep-alive connections share the operation list; each
    sends its next operation only when the previous reply has arrived.
    """
    from repro.service import HTTPClient

    records, targets, top_k = data["records"], data["targets"], sizes["top_k"]
    work = iter(ops)
    probe_ms: list[float] = []
    ingest_ms: list[float] = []
    hits = 0
    errors: list[str] = []

    async def client_loop(client: Any) -> None:
        nonlocal hits
        for kind, what in work:
            sent = time.perf_counter()
            try:
                if kind == "probe":
                    (ranked,) = await client.probe(session, [records[what]])
                else:
                    await client.ingest(session, [records[i] for i in what])
            except Exception as exc:  # a failed operation is a result, not a crash
                errors.append(f"{kind}: {exc!r}")
                continue
            latency = 1e3 * (time.perf_counter() - sent)
            if kind == "probe":
                probe_ms.append(latency)
                wanted = targets[what]
                hits += any(
                    wanted in (left, right) for left, right, _weight in ranked[:top_k]
                )
            else:
                ingest_ms.append(latency)

    clients = [HTTPClient(host, port) for _ in range(sizes["clients"])]
    try:
        gc.collect()
        began = time.perf_counter()
        await asyncio.gather(*(client_loop(client) for client in clients))
        resolve_s = time.perf_counter() - began
    finally:
        for client in clients:
            await client.close()

    n_probes = sum(1 for kind, _ in ops if kind == "probe")
    measured = {
        "resolve_s": resolve_s,
        "ops_per_s": (len(probe_ms) + len(ingest_ms)) / resolve_s,
        "op_p50_ms": harness.percentile(probe_ms, 0.50),
        "op_p95_ms": harness.percentile(probe_ms, 0.95),
        "recall": hits / n_probes,
    }
    if ingest_ms:
        measured["ingest_p50_ms"] = harness.percentile(ingest_ms, 0.50)
    return {
        "metrics": measured,
        "samples": {"op": len(probe_ms), "ingest": len(ingest_ms)},
        "attempted": len(ops),
        "errors": errors,
    }


async def stream_prefix_digest(client: Any, session: str, limit: int) -> str:
    """Digest of the first ``limit`` comparisons of a session's /stream."""
    batches = []
    remaining = limit
    while remaining > 0:
        batch = await client.stream(session, limit=min(1000, remaining))
        if not batch:
            break
        batches.append(batch)
        remaining -= len(batch)
    return harness.stream_digest(batches)


async def snapshot_round_trip(
    host: str, port: int, session: str, limit: int
) -> dict[str, Any]:
    """snapshot -> restore -> the two sessions stream the same prefix."""
    from repro.service import HTTPClient

    async with HTTPClient(host, port) as client:
        await client.snapshot(session)
        await client.restore_session("restored", session)
        live = await stream_prefix_digest(client, session, limit)
        restored = await stream_prefix_digest(client, "restored", limit)
        await client.delete_session("restored")
    return {"check": "restored /stream == live /stream", "ok": live == restored}


async def serve_passes(
    server_pid: int,
    host: str,
    port: int,
    data: dict[str, Any],
    sizes: dict[str, Any],
    repeats: int,
    started: float,
) -> dict[str, Any]:
    """A warm-up pass, then ``repeats`` timed ones.  A pass seeds a fresh
    session (off the clock) and runs the whole operation list against it,
    so every pass does the same work; the last one's session is then
    snapshotted and restored."""
    from repro.service import HTTPClient

    async def one_pass(session: str) -> dict[str, Any]:
        async with HTTPClient(host, port) as client:
            await client.create_session(session, data["seed_records"])
        return await closed_loop(host, port, session, data, data["ops"], sizes)

    async def drop(session: str) -> None:
        async with HTTPClient(host, port) as client:
            await client.delete_session(session)

    await one_pass("warm-up")
    setup_s = time.perf_counter() - started
    # As on the batch workloads: one pass in a fresh server process.
    peak_rss_mb = harness.proc_status_mb(server_pid, "VmHWM")
    passes = []
    for repeat in range(repeats):
        await drop(f"pass{repeat - 1}" if repeat else "warm-up")
        passes.append(await one_pass(f"pass{repeat}"))
    check = await snapshot_round_trip(
        host, port, f"pass{repeats - 1}", sizes["stream_check"]
    )
    raw = {
        key: [loop["metrics"][key] for loop in passes]
        for key in passes[0]["metrics"]
    }
    measured = {key: harness.median(values) for key, values in raw.items()}
    measured.update(setup_s=setup_s, peak_rss_mb=peak_rss_mb)
    errors = [error for loop in passes for error in loop["errors"]]
    return {
        "metrics": measured,
        "raw": raw,
        "samples": {
            kind: sum(loop["samples"][kind] for loop in passes)
            for kind in ("op", "ingest")
        },
        "checks": [check],
        "attempted": sum(loop["attempted"] for loop in passes) + 1,
        "failed": len(errors) + (0 if check["ok"] else 1),
        "errors": errors[:5],
    }


def run_serve(
    sizes: dict[str, Any], seed: int, repeats: int, started: float
) -> dict[str, Any]:
    data = serve_input(sizes, seed)
    with service() as (proc, host, port, _snapshot_dir):
        result = asyncio.run(
            serve_passes(proc.pid, host, port, data, sizes, repeats, started)
        )
    result["profiles"] = len(data["seed_records"])
    return result


def run_workload(
    name: str, sizes: dict[str, Any], seed: int, repeats: int, started: float
) -> dict[str, Any]:
    if name == "serve-mixed":
        return run_serve(sizes, seed, repeats, started)
    return run_batch(name, sizes, seed, repeats, started)
