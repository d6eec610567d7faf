"""SA-PSAB - Schema-Agnostic Progressive Suffix Arrays Blocking (§4.2).

Adapts batch Suffix Arrays Blocking [19, 21] to Progressive ER following
the "hierarchy of record partitions" idea of HRP [5, 9]: every attribute-
value token yields all suffixes of at least ``l_min`` characters; blocks of
longer suffixes (deeper forest layers, more specific evidence) are resolved
before blocks of shorter ones; within a layer, smaller blocks first.

``l_min`` is SA-PSAB's only parameter - the paper calls it "probably the
easiest-to-configure HRP or OLR progressive method".  Like SA-PSN it is
naive: comparisons co-occurring in several suffix blocks are re-emitted at
every level, and top-layer blocks of short suffixes can be enormous (the
reason it fails to scale in Section 7.2).
"""

from __future__ import annotations

from typing import Iterator

from repro.blocking.suffix_arrays import SuffixArraysBlocking, SuffixForest
from repro.core.comparisons import Comparison
from repro.core.profiles import ProfileStore
from repro.progressive.base import ProgressiveMethod, register_method


@register_method("SAPSAB")
class SAPSAB(ProgressiveMethod):
    """Progressive suffix-forest processing, leaves first, roots last.

    Parameters
    ----------
    store:
        The profiles to resolve.
    min_length:
        l_min - minimum suffix length (the only parameter).
    max_block_size:
        Optional cap on suffix-block size (None reproduces the paper).
    """

    name = "SA-PSAB"

    def __init__(
        self,
        store: ProfileStore,
        min_length: int = 3,
        max_block_size: int | None = None,
    ) -> None:
        super().__init__(store)
        self.blocker = SuffixArraysBlocking(
            min_length=min_length,
            max_block_size=max_block_size,
        )
        self.forest: SuffixForest | None = None

    def _setup(self) -> None:
        self.forest = self.blocker.build_forest(self.store)

    def _emit(self) -> Iterator[Comparison]:
        assert self.forest is not None
        er_type = self.store.er_type
        for node in self.forest.leaves_first_order(er_type):
            # All comparisons of one block share the same likelihood; the
            # suffix length doubles as the block's weight.
            depth = float(node.depth)
            for comparison in node.block.comparisons(er_type):
                yield Comparison(comparison.i, comparison.j, depth)
