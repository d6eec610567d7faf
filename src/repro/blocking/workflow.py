"""The Token Blocking workflow used by the equality-based methods.

Section 7 ("Parameter configuration") fixes the block-building pipeline for
PBS and PPS:

1. schema-agnostic Standard (Token) Blocking - a block per attribute-value
   token appearing in at least two profiles;
2. Block Purging - drop blocks with more than 10% of the input profiles
   (stop-word keys);
3. Block Filtering - retain every profile in 80% of its smallest blocks;
4. edge weighting on the Blocking Graph (ARCS by default) - performed
   lazily by the progressive methods via the Profile Index.

This module wires steps 1-3 into one call so that every consumer uses the
exact same pipeline.
"""

from __future__ import annotations

from repro.blocking.base import BlockCollection, drop_singleton_blocks
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.core.profiles import ProfileStore
from repro.registry import blocking_schemes


def blocking_workflow(
    store: ProfileStore,
    scheme: str = "token",
    purge_ratio: float | None = 0.1,
    filter_ratio: float | None = 0.8,
    **scheme_kwargs,
) -> BlockCollection:
    """Any registered blocking scheme -> Purging -> Filtering.

    The generalized form of :func:`token_blocking_workflow`: the block
    builder is resolved from the shared registry ("token", "suffix", or
    any user-registered scheme exposing ``build(store)``),
    then the paper's purge/filter steps apply uniformly.  ``None``
    disables a step; ``scheme_kwargs`` go to the builder's constructor.
    """
    builder = blocking_schemes.build(scheme, **scheme_kwargs)
    blocks = builder.build(store)
    if purge_ratio is not None:
        blocks = BlockPurging(purge_ratio).apply(blocks)
    if filter_ratio is not None:
        blocks = BlockFiltering(filter_ratio).apply(blocks)
    return drop_singleton_blocks(blocks)


def token_blocking_workflow(
    store: ProfileStore,
    purge_ratio: float | None = 0.1,
    filter_ratio: float | None = 0.8,
) -> BlockCollection:
    """Token Blocking -> Block Purging -> Block Filtering.

    Parameters
    ----------
    store:
        The profile collection(s) to block.
    purge_ratio:
        Block Purging threshold (paper: 0.1).  ``None`` skips the step.
    filter_ratio:
        Block Filtering ratio (paper: 0.8).  ``None`` skips the step.

    Returns
    -------
    BlockCollection
        Redundancy-positive blocks ready for the Blocking Graph methods.
    """
    return blocking_workflow(
        store,
        scheme="token",
        purge_ratio=purge_ratio,
        filter_ratio=filter_ratio,
    )
