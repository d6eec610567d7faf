"""Fixtures for the sharded-execution parity suite.

Everything here requires numpy (the ``repro[speed]`` extra); without it
the whole ``tests/parallel`` package skips, keeping the dependency-free
tier-1 run green.

The parity matrix runs the shard code *inline* (``workers=0``) so it can
sweep shards x schemes x methods x ER types exhaustively without
forking hundreds of pools; ``test_pool.py`` covers the process
transport separately with real workers.
"""

from __future__ import annotations

import itertools
import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.profiles import ProfileStore  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.registry import progressive_methods  # noqa: E402

# Emission prefix compared per combination (long enough to cover every
# method's initialization output plus several refills).
PREFIX = 20_000


@pytest.fixture(scope="session")
def dirty_dataset():
    """A small Dirty ER dataset (census at reduced scale)."""
    return load_dataset("census", scale=0.2)


@pytest.fixture(scope="session")
def clean_clean_store() -> ProfileStore:
    """A synthetic Clean-clean store with overlapping token vocabulary."""
    rng = random.Random(11)
    # fmt: off
    words = [
        "alpha", "beta", "gamma", "delta", "epsilon",
        "zeta", "eta", "theta", "iota", "kappa",
    ]
    # fmt: on

    def record(k: int) -> dict[str, str]:
        return {
            "title": " ".join(rng.sample(words, 3)),
            "year": str(1990 + k % 15),
        }

    left = [record(k) for k in range(45)]
    right = [
        dict(item, extra=words[k % 10]) for k, item in enumerate(left[:30])
    ] + [record(k + 100) for k in range(15)]
    return ProfileStore.clean_clean(left, right)


def stream_prefix(method: str, store, backend, **kwargs):
    """The first PREFIX (i, j, weight) triples a method emits."""
    instance = progressive_methods.build(method, store, backend=backend, **kwargs)
    return [
        (c.i, c.j, c.weight)
        for c in itertools.islice(iter(instance), PREFIX)
    ]


@pytest.fixture(scope="session")
def baseline_cache():
    """Session-wide cache of sequential-numpy streams, keyed by case."""
    return {}
