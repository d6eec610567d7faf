"""Streams do not depend on the hash seed.

``set`` iteration order, and with it any id assignment, accumulation or
emission that walks a set of strings, follows ``PYTHONHASHSEED``.  This
file is also the script: run as ``__main__`` it resolves every registered
method on every available backend (Dirty and Clean-clean corpora), every
weighting scheme and every pruning algorithm on PBS and PPS, and the matching
cascade, and prints one JSON object of all cells.  Two interpreters with
different hash seeds must print the same JSON; each cell is its own test,
so a divergence names the cell.
"""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.blocking.standard_blocking import KeyFunction
from repro.engine import available_backends
from repro.registry import progressive_methods, pruning_algorithms, weighting_schemes

SRC = Path(__file__).resolve().parents[1] / "src"
PYTHONPATH = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])
SEEDS = ("0", "4242")


def plan():
    """``(name, corpus, kwargs)`` of every cell, in a fixed order."""
    # workers=0 runs the sharded code inline, in this interpreter.
    backends = {
        name: {"workers": 0, "shards": 3} if name == "numpy-parallel" else {"backend": name}
        for name in available_backends()
    }
    psn = {"key_function": KeyFunction.attribute("title")}
    for backend, knobs in backends.items():
        for corpus in ("dirty", "clean-clean"):
            for method in progressive_methods.names():
                extra = psn if method == "PSN" else {}
                yield f"{method} {corpus} {backend}", corpus, {"method": method, **knobs, **extra}
    # Once per implementation of the scoring layers: the sharded backend
    # runs the numpy backend's kernels.
    for backend in [name for name in backends if name != "numpy-parallel"]:
        for weighting in weighting_schemes.names():
            if weighting == "ARCS":  # the default: the method cells ran it
                continue
            for method in ("PBS", "PPS"):
                yield (f"{method} {weighting} {backend}", "dirty",
                       {"method": method, "weighting": weighting, "backend": backend})
        for pruning in pruning_algorithms.names():
            for method in ("PBS", "PPS"):
                yield (f"{method} {pruning} {backend}", "dirty",
                       {"method": method, "pruning": pruning, "backend": backend})
        yield f"cascade {backend}", "dirty", {"match": True, "backend": backend}


def sweep():
    """Resolve every cell of :func:`plan` and print them as one JSON object."""
    from repro.core.profiles import ProfileStore
    from repro.datasets.synthetic import generate_synthetic
    from repro.pipeline import resolve
    from repro.service.snapshot import stream_digest

    corpora = {}
    for er_type in ("dirty", "clean-clean"):
        dataset = generate_synthetic(n_profiles=400, seed=1, er_type=er_type)
        # Held in memory: the generator rebuilds each profile on every read.
        store = ProfileStore(list(dataset.store), dataset.store.er_type)
        corpora[er_type] = dataclasses.replace(dataset, store=store)
    cells = {}
    for name, corpus, kwargs in plan():
        result = resolve(corpora[corpus], budget=1000, **kwargs)
        cells[name] = {
            "stream_digest": stream_digest(result.pairs),
            "emitted": result.emitted,
            "clusters": result.clusters,
            "matches": sorted(result.matches),
        }
    print(json.dumps(cells, sort_keys=True))


CELLS = [name for name, _, _ in plan()]


@pytest.fixture(scope="module")
def runs():
    """The sweep's JSON from two concurrent interpreters, one per seed."""
    procs = [
        subprocess.Popen(
            [sys.executable, __file__],
            env={**os.environ, "PYTHONPATH": PYTHONPATH, "PYTHONHASHSEED": seed},
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        for seed in SEEDS
    ]
    outputs = [proc.communicate(timeout=300) for proc in procs]
    for proc, (_, stderr) in zip(procs, outputs):
        assert proc.returncode == 0, stderr
    return [json.loads(stdout) for stdout, _ in outputs]


def test_every_cell_ran_under_both_seeds(runs):
    assert len(CELLS) >= 30  # the sweep covers the python backend at least
    assert len(set(CELLS)) == len(CELLS)
    for cells in runs:
        assert sorted(cells) == sorted(CELLS)


@pytest.mark.parametrize("cell", CELLS)
def test_stream_does_not_depend_on_the_hash_seed(runs, cell):
    first, second = runs
    assert first[cell] == second[cell]


if __name__ == "__main__":
    sweep()
