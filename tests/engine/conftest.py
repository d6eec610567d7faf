"""Fixtures for the engine parity suite.

Everything here requires numpy (the ``repro[speed]`` extra); without it
the whole ``tests/engine`` package skips, keeping the dependency-free
tier-1 run green.
"""

from __future__ import annotations

import random

import pytest

np = pytest.importorskip("numpy")

from repro.core.profiles import ProfileStore  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402


@pytest.fixture(scope="session")
def dirty_dataset():
    """A mid-size Dirty ER dataset (census at reduced scale)."""
    return load_dataset("census", scale=0.3)


@pytest.fixture(scope="session")
def clean_clean_store() -> ProfileStore:
    """A synthetic Clean-clean store with overlapping token vocabulary."""
    rng = random.Random(7)
    # fmt: off
    words = [
        "alpha", "beta", "gamma", "delta", "epsilon",
        "zeta", "eta", "theta", "iota", "kappa",
    ]
    # fmt: on

    def record(k: int) -> dict[str, str]:
        return {
            "title": " ".join(rng.sample(words, 3)),
            "year": str(1990 + k % 20),
        }

    left = [record(k) for k in range(60)]
    right = [
        dict(item, extra=words[k % 10]) for k, item in enumerate(left[:40])
    ] + [record(k + 100) for k in range(20)]
    return ProfileStore.clean_clean(left, right)


def csr_rows(indptr, indices) -> list[list[int]]:
    """Every row of a CSR ``(indptr, indices)`` pair, as lists."""
    return [
        np.asarray(indices[start:end]).tolist()
        for start, end in zip(indptr[:-1].tolist(), indptr[1:].tolist())
    ]
