"""Suffix Arrays Blocking (SAB) [19,21] and the suffix forest.

SAB tolerates noise at the *start* of blocking keys by indexing every key
under all of its suffixes with at least ``min_length`` characters.  The
suffixes of all keys form a *suffix forest* (Section 4.2): one tree per
distinct shortest suffix, where the parent of suffix ``s`` is ``s[1:]``.
Longer suffixes sit deeper; a leaf at the lowest layer is the longest
original key.

The schema-agnostic variant used by SA-PSAB treats every attribute-value
token as a key.  SA-PSAB then processes the forest "leaves first, root
last": blocks of longer suffixes (more specific evidence) are resolved
before blocks of shorter ones, and within a layer smaller blocks first.
"""

from __future__ import annotations

from repro.blocking.base import Block, BlockCollection
from repro.core.profiles import ERType, ProfileStore
from repro.core.tokenization import distinct_profile_tokens, suffixes
from repro.registry import blocking_schemes


class SuffixNode:
    """A node of the suffix forest: one suffix and its block of profiles."""

    __slots__ = ("suffix", "block", "children")

    def __init__(self, suffix: str, block: Block) -> None:
        self.suffix = suffix
        self.block = block
        self.children: list["SuffixNode"] = []

    @property
    def depth(self) -> int:
        """Layer of the node - the suffix length."""
        return len(self.suffix)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SuffixNode({self.suffix!r}, size={self.block.size})"


class SuffixForest:
    """All suffix trees of a profile collection's blocking keys."""

    def __init__(self, nodes: dict[str, SuffixNode], min_length: int) -> None:
        self.nodes = nodes
        self.min_length = min_length
        self.roots: list[SuffixNode] = []
        for suffix, node in nodes.items():
            parent_key = suffix[1:]
            parent = nodes.get(parent_key)
            if len(suffix) > min_length and parent is not None:
                parent.children.append(node)
            else:
                self.roots.append(node)
        # Deterministic child/root ordering.
        self.roots.sort(key=lambda n: n.suffix)
        for node in nodes.values():
            node.children.sort(key=lambda n: n.suffix)

    def leaves_first_order(self, er_type: ERType) -> list[SuffixNode]:
        """Nodes ordered for progressive processing (Section 4.2).

        Deeper layers (longer suffixes) first; within a layer, blocks with
        fewer comparisons first; final tie-break on the suffix itself for
        determinism.
        """
        return sorted(
            self.nodes.values(),
            key=lambda node: (
                -node.depth,
                node.block.cardinality(er_type),
                node.suffix,
            ),
        )


class SuffixArraysBlocking:
    """Schema-agnostic Suffix Arrays Blocking.

    Parameters
    ----------
    min_length:
        l_min - the minimum suffix length (SA-PSAB's only parameter).
    max_block_size:
        Optional classic-SAB cap: suffixes indexing more than this many
        profiles are dropped.  ``None`` (the default) reproduces the
        paper's uncapped SA-PSAB, whose huge top-layer blocks are exactly
        why it fails to scale (Section 7.2).
    """

    def __init__(
        self,
        min_length: int = 3,
        max_block_size: int | None = None,
    ) -> None:
        if min_length < 1:
            raise ValueError("min_length must be positive")
        self.min_length = min_length
        self.max_block_size = max_block_size

    # -- construction ----------------------------------------------------------

    def _suffix_buckets(self, store: ProfileStore) -> dict[str, list[int]]:
        buckets: dict[str, dict[int, None]] = {}
        for profile in store:
            for token in distinct_profile_tokens(profile):
                for suffix in suffixes(token, self.min_length):
                    buckets.setdefault(suffix, {}).setdefault(profile.profile_id)
        return {suffix: list(ids) for suffix, ids in buckets.items()}

    def build_forest(self, store: ProfileStore) -> SuffixForest:
        """The full suffix forest with one block per valid suffix."""
        cross_source = store.er_type is ERType.CLEAN_CLEAN
        nodes: dict[str, SuffixNode] = {}
        for suffix, ids in self._suffix_buckets(store).items():
            if len(ids) < 2:
                continue
            if self.max_block_size is not None and len(ids) > self.max_block_size:
                continue
            block = Block(suffix, ids, store)
            if cross_source and (not block.left_ids or not block.right_ids):
                continue
            nodes[suffix] = SuffixNode(suffix, block)
        return SuffixForest(nodes, self.min_length)

    def build(self, store: ProfileStore) -> BlockCollection:
        """Flat block collection in progressive (leaves-first) order."""
        forest = self.build_forest(store)
        ordered = forest.leaves_first_order(store.er_type)
        return BlockCollection((node.block for node in ordered), store)


blocking_schemes.register(
    "suffix", SuffixArraysBlocking, aliases=("suffix-arrays", "sa")
)
