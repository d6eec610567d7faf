"""Storage parity: ``storage="memmap"`` never changes a stream.

The matrix sweeps {python, numpy, numpy-parallel at 1/2/3 shards} x
{ram, memmap} x {Dirty, Clean-clean} x all five weighting schemes and
asserts one digest per cell: where the arrays live is an execution
detail, the emitted comparison stream is the contract.  The shard code
runs inline (``workers=0``) like the main parity suite; process
transport is ``test_pool.py``'s job.

The ``scale`` tier repeats the ram-vs-memmap digest check on a 100k
synthetic workload end to end through :func:`repro.resolve` (see
CONTRIBUTING.md; run with ``pytest -m scale``).
"""

from __future__ import annotations

import hashlib
import itertools
import os

import pytest

np = pytest.importorskip("numpy")

from repro.engine import NumpyBackend  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402
from repro.progressive import PPS  # noqa: E402

from .conftest import PREFIX  # noqa: E402

SCHEMES = ("ARCS", "CBS", "ECBS", "JS", "EJS")
SHARD_COUNTS = (1, 2, 3)


def stream_digest(store, backend, scheme) -> tuple[int, str]:
    """(count, blake2b) over the first PREFIX emitted pairs."""
    method = PPS(store, backend=backend, weighting=scheme)
    digest = hashlib.blake2b(digest_size=16)
    count = 0
    for comparison in itertools.islice(iter(method), PREFIX):
        digest.update(b"%d,%d;" % comparison.pair)
        count += 1
    return count, digest.hexdigest()


def scratch_dirs(root) -> list[str]:
    return [
        entry
        for entry in os.listdir(root)
        if entry.startswith("repro-storage-")
    ]


@pytest.fixture(params=["dirty", "clean_clean"])
def store(request, dirty_dataset, clean_clean_store):
    if request.param == "dirty":
        return dirty_dataset.store
    return clean_clean_store


@pytest.mark.parametrize("scheme", SCHEMES)
def test_storage_never_changes_the_stream(store, scheme, tmp_path):
    count, baseline = stream_digest(store, "python", scheme)
    assert count > 0, "empty baseline stream"
    configs = [
        ("numpy/ram", "numpy"),
        (
            "numpy/memmap",
            NumpyBackend(storage="memmap", storage_dir=str(tmp_path)),
        ),
    ]
    for shards in SHARD_COUNTS:
        configs.append(
            (
                f"parallel-{shards}/ram",
                ParallelBackend(workers=0, shards=shards),
            )
        )
        configs.append(
            (
                f"parallel-{shards}/memmap",
                ParallelBackend(
                    workers=0,
                    shards=shards,
                    storage="memmap",
                    storage_dir=str(tmp_path),
                ),
            )
        )
    for label, backend in configs:
        assert stream_digest(store, backend, scheme) == (count, baseline), (
            f"{label} diverged from the python reference under {scheme}"
        )
        if not isinstance(backend, str):
            backend.close()
    # Every private backend instance reclaimed its scratch directory.
    assert scratch_dirs(tmp_path) == []


@pytest.mark.scale
class TestScaleParity:
    def test_100k_memmap_digest_matches_ram(self, tmp_path):
        from repro import resolve
        from repro.datasets.synthetic import generate_synthetic

        digests = {}
        for mode in ("ram", "memmap"):
            dataset = generate_synthetic(n_profiles=100_000, seed=0)
            kwargs = (
                {}
                if mode == "ram"
                else {"storage": "memmap", "storage_dir": str(tmp_path)}
            )
            result = resolve(
                dataset,
                method="PPS",
                budget=100_000,
                backend="numpy",
                **kwargs,
            )
            digest = hashlib.blake2b(digest_size=16)
            for comparison in result.pairs:
                digest.update(b"%d,%d;" % comparison.pair)
            digests[mode] = (result.emitted, digest.hexdigest())
            result.resolver.close()
        assert digests["ram"] == digests["memmap"]
        assert digests["ram"][0] == 100_000
        assert scratch_dirs(tmp_path) == []
