"""Dataset registry: the paper's 7 benchmarks by name.

``load_dataset(name)`` builds the synthetic stand-in at its default scale;
the large heterogeneous datasets default to laptop-scale fractions of the
originals (the scale is recorded on the returned :class:`Dataset` and
read by the table2-* rows of tests/test_paper_claims.py).
"""

from __future__ import annotations

from typing import Callable

from repro.datasets.base import Dataset
from repro.datasets.heterogeneous import (
    generate_dbpedia,
    generate_freebase,
    generate_movies,
)
from repro.datasets.structured import (
    generate_cddb,
    generate_census,
    generate_cora,
    generate_restaurant,
)
from repro.datasets.synthetic import generate_synthetic

_GENERATORS: dict[str, tuple[Callable[..., Dataset], float]] = {
    # name: (generator, default scale)
    "census": (generate_census, 1.0),
    "restaurant": (generate_restaurant, 1.0),
    "cora": (generate_cora, 1.0),
    "cddb": (generate_cddb, 0.5),
    "movies": (generate_movies, 0.04),
    "dbpedia": (generate_dbpedia, 0.002),
    "freebase": (generate_freebase, 0.001),
    # Scale workload: 1.0 = 1M profiles (streamed, never fully
    # resident); the default keeps interactive loads laptop-sized.
    "synthetic": (generate_synthetic, 0.01),
}

STRUCTURED_DATASETS = ("census", "restaurant", "cora", "cddb")
HETEROGENEOUS_DATASETS = ("movies", "dbpedia", "freebase")
SYNTHETIC_DATASETS = ("synthetic",)


def list_datasets() -> list[str]:
    """Names of all registered datasets (structured first)."""
    return (
        list(STRUCTURED_DATASETS)
        + list(HETEROGENEOUS_DATASETS)
        + list(SYNTHETIC_DATASETS)
    )


def load_dataset(name: str, scale: float | None = None, seed: int = 0) -> Dataset:
    """Build a dataset by name.

    Parameters
    ----------
    name:
        One of :func:`list_datasets` (case-insensitive).
    scale:
        Linear scale relative to the paper's dataset; ``None`` uses the
        registry default.
    seed:
        Generator seed; the same (name, scale, seed) triple always yields
        the identical dataset.
    """
    try:
        generator, default_scale = _GENERATORS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown dataset {name!r}; available: {list_datasets()}"
        ) from None
    return generator(scale=default_scale if scale is None else scale, seed=seed)
