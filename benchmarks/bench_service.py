"""Serving-layer benchmark: concurrent probe latency over a live socket.

Boots the real service (``python -m repro.service`` in a subprocess),
ingests a seeded synthetic workload (``repro.datasets.synthetic``) into
one session, then drives **concurrent probe clients** (each with its
own keep-alive TCP connection) against it and records client-observed
p50/p95 probe latency and throughput, alongside the server's own
per-session metrics.  The run finishes with the snapshot acceptance
check: the session is snapshotted over the API, restored as a second
session, and both emission streams are drained through ``/stream``
pagination - their order- and weight-sensitive digests must be equal
(the same contract ``tests/service/test_snapshot.py`` pins in-process).

Usage::

    PYTHONPATH=src python benchmarks/bench_service.py           # full run
    PYTHONPATH=src python benchmarks/bench_service.py --smoke   # CI-sized

The full run writes ``BENCH_service.json``; ``--smoke`` writes
``BENCH_service_smoke.json`` so CI never clobbers the committed
artifact.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import tempfile
import time

try:  # package import (pytest) vs direct script execution
    from benchmarks._shared import emit, write_bench_json
except ImportError:  # pragma: no cover - script mode
    from _shared import emit, write_bench_json

SCHEMA = "bench-service/1"
SEED = 0

#: >= 8 concurrent probe clients - the acceptance floor for the run.
PROBE_CLIENTS = 8

FULL = {"n_profiles": 2000, "probes": 400, "ingest_chunk": 200}
SMOKE = {"n_profiles": 300, "probes": 64, "ingest_chunk": 100}

BENCH_SERVICE_PATH = "BENCH_service.json"
BENCH_SERVICE_SMOKE_PATH = "BENCH_service_smoke.json"


def synthetic_records(n_profiles: int) -> list[list[list[str]]]:
    """The seeded workload as JSON-able records (attribute pair lists)."""
    from repro.datasets.synthetic import generate_synthetic

    data = generate_synthetic(n_profiles=n_profiles, seed=SEED)
    return [
        [[name, value] for name, value in profile.pairs]
        for profile in data.store
    ]


def stream_digest_of_triples(triples) -> str:
    """Client-side twin of :func:`repro.service.snapshot.stream_digest`.

    JSON floats round-trip bit-exactly (``repr`` shortest-float both
    ways), so digesting the wire triples must reproduce the server-side
    digest of the same stream.
    """
    digest = hashlib.blake2b(digest_size=16)
    for i, j, weight in triples:
        digest.update(f"{i},{j},{weight!r};".encode())
    return digest.hexdigest()


def boot_server(snapshot_dir: str) -> tuple[subprocess.Popen, str, int]:
    """Start ``python -m repro.service`` and wait for its serving line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in ("src", env.get("PYTHONPATH")) if part
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "--snapshot-dir", snapshot_dir],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    line = (proc.stdout.readline() or "").strip()
    prefix = "serving on http://"
    if not line.startswith(prefix):  # pragma: no cover - boot failure
        proc.kill()
        raise RuntimeError(f"service failed to boot: {line!r}")
    host, port = line[len(prefix):].rsplit(":", 1)
    return proc, host, int(port)


async def drain_stream(client, name: str, page: int = 1000) -> list:
    """Page through ``/stream`` until the emitter runs dry."""
    triples = []
    while True:
        batch = await client.stream(name, limit=page)
        triples.extend(batch)
        if len(batch) < page:
            return triples


async def run_probe_phase(
    host: str, port: int, records: list, probes: int
) -> dict:
    """``PROBE_CLIENTS`` concurrent clients share one probe work-list."""
    from repro.service import HTTPClient

    latencies: list[float] = []
    work = iter(range(probes))

    async def worker() -> None:
        async with HTTPClient(host, port) as client:
            for position in work:
                record = records[position % len(records)]
                started = time.perf_counter()
                scored = await client.probe("bench", [record])
                latencies.append(time.perf_counter() - started)
                assert len(scored) == 1

    started = time.perf_counter()
    await asyncio.gather(*(worker() for _ in range(PROBE_CLIENTS)))
    wall = time.perf_counter() - started
    latencies.sort()

    def percentile(fraction: float) -> float:
        rank = min(len(latencies) - 1, round(fraction * (len(latencies) - 1)))
        return latencies[rank]

    return {
        "clients": PROBE_CLIENTS,
        "probes": len(latencies),
        "wall_seconds": wall,
        "throughput_probes_per_s": len(latencies) / wall,
        "latency_p50_s": percentile(0.50),
        "latency_p95_s": percentile(0.95),
        "latency_mean_s": sum(latencies) / len(latencies),
    }


async def run(params: dict, snapshot_dir: str, host: str, port: int) -> dict:
    from repro.service import HTTPClient

    records = synthetic_records(params["n_profiles"])
    async with HTTPClient(host, port) as client:
        await client.create_session("bench")
        chunk = params["ingest_chunk"]
        ingest_started = time.perf_counter()
        emitted = 0
        for start in range(0, len(records), chunk):
            ranked = await client.ingest("bench", records[start:start + chunk])
            emitted += len(ranked)
        ingest_seconds = time.perf_counter() - ingest_started

        probe_stats = await run_probe_phase(
            host, port, records, params["probes"]
        )

        server_view = await client.session_metrics("bench")
        snapshot_manifest = await client.snapshot("bench")
        live = stream_digest_of_triples(await drain_stream(client, "bench"))
        await client.restore_session(
            "restored", os.path.join(snapshot_dir, "bench")
        )
        restored = stream_digest_of_triples(
            await drain_stream(client, "restored")
        )
        assert live == restored, (
            f"restored stream digest {restored} != live {live}"
        )
        return {
            "schema": SCHEMA,
            "seed": SEED,
            "n_profiles": params["n_profiles"],
            "ingest": {
                "records": len(records),
                "chunk": chunk,
                "wall_seconds": ingest_seconds,
                "comparisons_emitted": emitted,
            },
            "probe": probe_stats,
            "server_metrics": {
                key: server_view[key]
                for key in (
                    "probes",
                    "ingests",
                    "comparisons_served",
                    "probe_latency_p50",
                    "probe_latency_p95",
                    "queue_depth",
                    "rejected",
                )
            },
            "snapshot": {
                "profiles": snapshot_manifest["profiles"],
                "tokens": snapshot_manifest["tokens"],
                "postings": snapshot_manifest["postings"],
                "stream_digest_live": live,
                "stream_digest_restored": restored,
                "digest_equal": live == restored,
            },
        }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="CI-sized run; writes BENCH_service_smoke.json",
    )
    args = parser.parse_args(argv)
    params = SMOKE if args.smoke else FULL
    with tempfile.TemporaryDirectory() as snapshot_dir:
        proc, host, port = boot_server(snapshot_dir)
        try:
            payload = asyncio.run(run(params, snapshot_dir, host, port))
        finally:
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=30)
            if proc.stdout is not None:
                proc.stdout.close()
        payload["smoke"] = args.smoke
        path = write_bench_json(
            payload,
            BENCH_SERVICE_SMOKE_PATH if args.smoke else BENCH_SERVICE_PATH,
        )
    probe = payload["probe"]
    emit(
        "service bench ({} profiles, {} clients): {:.0f} probes/s, "
        "p50 {:.1f} ms, p95 {:.1f} ms; snapshot digest equal: {} -> {}".format(
            params["n_profiles"],
            probe["clients"],
            probe["throughput_probes_per_s"],
            probe["latency_p50_s"] * 1e3,
            probe["latency_p95_s"] * 1e3,
            payload["snapshot"]["digest_equal"],
            path,
        )
    )
    print(json.dumps(payload["probe"], indent=2, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
