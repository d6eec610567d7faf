"""Blocking substrate: blocks, builders and block-collection transforms."""

from repro.blocking.base import Block, BlockCollection, drop_singleton_blocks
from repro.blocking.filtering import BlockFiltering
from repro.blocking.purging import BlockPurging
from repro.blocking.scheduling import block_scheduling, block_weight
from repro.blocking.standard_blocking import (
    KeyFunction,
    keyed_profiles,
    soundex,
)
from repro.blocking.suffix_arrays import (
    SuffixArraysBlocking,
    SuffixForest,
    SuffixNode,
)
from repro.blocking.token_blocking import TokenBlocking
from repro.blocking.workflow import blocking_workflow, token_blocking_workflow

__all__ = [
    "Block",
    "BlockCollection",
    "drop_singleton_blocks",
    "BlockFiltering",
    "BlockPurging",
    "block_scheduling",
    "block_weight",
    "KeyFunction",
    "keyed_profiles",
    "soundex",
    "SuffixArraysBlocking",
    "SuffixForest",
    "SuffixNode",
    "TokenBlocking",
    "blocking_workflow",
    "token_blocking_workflow",
]
