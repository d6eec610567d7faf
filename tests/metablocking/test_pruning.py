"""Unit tests for the batch Meta-blocking pruning algorithms.

Covers the reference semantics of all four algorithms (WNP/CNP + the
reciprocal variants), Clean-clean ER, degenerate inputs, and the
three-backend parity matrix: every pruning algorithm x weighting scheme
x ER type must emit the *bit-identical* retained stream on ``python``,
``numpy`` and ``numpy-parallel`` (shards 1/2/3/7).
"""

from __future__ import annotations

import random

import pytest

from repro.blocking.base import Block, BlockCollection
from repro.blocking.token_blocking import TokenBlocking
from repro.blocking.workflow import token_blocking_workflow
from repro.core.profiles import ProfileStore
from repro.engine import get_backend
from repro.metablocking.pruning import (
    cardinality_node_pruning,
    prune,
    reciprocal_cardinality_node_pruning,
    reciprocal_weighted_node_pruning,
    weighted_node_pruning,
)

ALL_ALGORITHMS = ("WNP", "CNP", "RWNP", "RCNP")
GRAPH_SCHEMES = ("ARCS", "CBS", "ECBS", "JS", "EJS")
SHARD_COUNTS = (1, 2, 3, 7)


@pytest.fixture()
def paper_blocks(paper_profiles):
    return TokenBlocking().build(paper_profiles)


@pytest.fixture(scope="module")
def varied_clean_clean() -> ProfileStore:
    """A Clean-clean store with *varied* edge weights (overlaps of
    different sizes), so thresholds separate the edge population."""
    rng = random.Random(23)
    # fmt: off
    words = [
        "alpha", "beta", "gamma", "delta", "epsilon",
        "zeta", "eta", "theta", "iota", "kappa", "lam", "mu",
    ]
    # fmt: on

    def record(k: int, count: int) -> dict[str, str]:
        return {
            "title": " ".join(rng.sample(words, count)),
            "year": str(1990 + k % 12),
        }

    left = [record(k, 2 + k % 4) for k in range(40)]
    right = [
        dict(item, extra=words[k % 12]) for k, item in enumerate(left[:25])
    ] + [record(k + 100, 2 + k % 3) for k in range(15)]
    return ProfileStore.clean_clean(left, right)


class TestWeightedNodePruning:
    def test_duplicates_survive(self, paper_blocks):
        pairs = {c.pair for c in weighted_node_pruning(paper_blocks)}
        assert {(0, 1), (3, 4), (0, 2), (1, 2)} <= pairs

    def test_keeps_edge_if_either_endpoint_accepts(self, paper_blocks):
        """p6's best edges survive via p6's own (low) local mean."""
        pairs = {c.pair for c in weighted_node_pruning(paper_blocks)}
        assert (0, 5) in pairs or (1, 5) in pairs or (2, 5) in pairs


class TestCardinalityNodePruning:
    def test_top_one_per_node(self, paper_blocks):
        kept = cardinality_node_pruning(paper_blocks, k=1)
        pairs = {c.pair for c in kept}
        # Each node's single best edge: c12, c45, c23-or-c13, one of p6's.
        assert (0, 1) in pairs and (3, 4) in pairs
        assert len(pairs) <= 6

    def test_no_duplicates_in_output(self, paper_blocks):
        kept = cardinality_node_pruning(paper_blocks, k=2)
        pairs = [c.pair for c in kept]
        assert len(pairs) == len(set(pairs))

    def test_recall_grows_with_k(self, paper_blocks):
        small = {c.pair for c in cardinality_node_pruning(paper_blocks, k=1)}
        large = {c.pair for c in cardinality_node_pruning(paper_blocks, k=4)}
        assert small <= large


class TestReciprocalVariants:
    def test_rwnp_subset_of_wnp(self, paper_blocks):
        wnp = {c.pair for c in weighted_node_pruning(paper_blocks)}
        rwnp = {c.pair for c in reciprocal_weighted_node_pruning(paper_blocks)}
        assert rwnp <= wnp

    def test_rcnp_subset_of_cnp(self, paper_blocks):
        for k in (1, 2, 4):
            cnp = {c.pair for c in cardinality_node_pruning(paper_blocks, k=k)}
            rcnp = {
                c.pair
                for c in reciprocal_cardinality_node_pruning(paper_blocks, k=k)
            }
            assert rcnp <= cnp

    def test_rwnp_requires_both_endpoints(self, paper_blocks):
        """Edges surviving WNP only through one weak endpoint's low mean
        are exactly the ones RWNP drops."""
        wnp = {c.pair for c in weighted_node_pruning(paper_blocks)}
        rwnp = {c.pair for c in reciprocal_weighted_node_pruning(paper_blocks)}
        dropped = wnp - rwnp
        # The strong duplicate edges survive the stricter rule too.
        assert (0, 1) in rwnp and (3, 4) in rwnp
        # p6's rescue edges (kept only by p6's own low mean) do not.
        assert dropped, "reciprocity changed nothing on the paper fixture"

    def test_rcnp_with_large_k_equals_edge_set(self, paper_blocks):
        """With k >= max degree, every edge is in both endpoints' top-k."""
        cnp = cardinality_node_pruning(paper_blocks, k=100)
        rcnp = reciprocal_cardinality_node_pruning(paper_blocks, k=100)
        assert rcnp == cnp


class TestCleanCleanPruning:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_no_intra_source_pairs_survive(self, varied_clean_clean, algorithm):
        blocks = token_blocking_workflow(varied_clean_clean)
        kept = prune(blocks, algorithm, "ARCS")
        assert kept, f"{algorithm} retained nothing on the Clean-clean store"
        source_of = varied_clean_clean.source_of
        assert all(source_of(c.i) != source_of(c.j) for c in kept)

    def test_tiny_clean_clean_matches_lead(self, tiny_clean_clean):
        blocks = TokenBlocking().build(tiny_clean_clean)
        kept = weighted_node_pruning(blocks)
        assert {(0, 3), (1, 4)} <= {c.pair for c in kept}


class TestDegenerateInputs:
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_empty_collection(self, paper_profiles, algorithm):
        assert prune(BlockCollection([], paper_profiles), algorithm) == []

    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_single_block(self, paper_profiles, algorithm):
        block = Block("white", (0, 1, 2), paper_profiles)
        blocks = BlockCollection([block], paper_profiles)
        kept = prune(blocks, algorithm)
        # One shared block of three profiles: every pair has the same
        # weight; the weight-based algorithms keep all three edges.
        pairs = [c.pair for c in kept]
        assert pairs == sorted(pairs)
        if algorithm in ("WNP", "RWNP"):
            assert pairs == [(0, 1), (0, 2), (1, 2)]

    def test_all_tied_weights_at_cnp_boundary(self, paper_profiles):
        """Per-node top-k under ties keeps each node's smallest pairs."""
        block = Block("white", (0, 1, 2, 3), paper_profiles)
        blocks = BlockCollection([block], paper_profiles)
        kept = cardinality_node_pruning(blocks, "CBS", k=1)
        # Every node's single best tied edge is its smallest (i, j):
        # node 0 -> (0,1); 1 -> (0,1); 2 -> (0,2); 3 -> (0,3).
        assert [c.pair for c in kept] == [(0, 1), (0, 2), (0, 3)]
        reciprocal = reciprocal_cardinality_node_pruning(blocks, "CBS", k=1)
        # Only (0, 1) is the top choice of both its endpoints.
        assert [c.pair for c in reciprocal] == [(0, 1)]


class TestThreeBackendParity:
    """The acceptance matrix: bit-identical retained streams across
    ``python``, ``numpy`` and ``numpy-parallel`` (shards 1/2/3/7) for
    every pruning algorithm x weighting scheme x ER type."""

    @pytest.fixture(scope="class")
    def dirty_blocks(self):
        pytest.importorskip("numpy")
        from repro.datasets.registry import load_dataset

        store = load_dataset("census", scale=0.2).store
        return token_blocking_workflow(store)

    @pytest.fixture(scope="class")
    def clean_blocks(self, varied_clean_clean):
        pytest.importorskip("numpy")
        return token_blocking_workflow(varied_clean_clean)

    @staticmethod
    def assert_parity(blocks, algorithm, scheme):
        from repro.parallel.backend import ParallelBackend

        reference = prune(blocks, algorithm, scheme, backend="python")
        vectorized = prune(blocks, algorithm, scheme, backend="numpy")
        # Comparison is a NamedTuple: == compares pairs AND weight bits.
        assert vectorized == reference, f"numpy diverged for {algorithm}/{scheme}"
        for shards in SHARD_COUNTS:
            sharded = prune(
                blocks,
                algorithm,
                scheme,
                backend=ParallelBackend(workers=0, shards=shards),
            )
            assert sharded == reference, (
                f"numpy-parallel with {shards} shards diverged for "
                f"{algorithm}/{scheme}"
            )

    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_dirty_er(self, dirty_blocks, algorithm, scheme):
        self.assert_parity(dirty_blocks, algorithm, scheme)

    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_clean_clean_er(self, clean_blocks, algorithm, scheme):
        self.assert_parity(clean_blocks, algorithm, scheme)

    def test_explicit_k_parity(self, dirty_blocks):
        """The kernels' per-node top-k equals the reference at budgets
        other than the literature default the dispatcher passes."""
        from repro.blocking.scheduling import block_scheduling
        from repro.core.comparisons import to_comparisons
        from repro.parallel.backend import ParallelBackend

        for backend in (ParallelBackend(workers=0, shards=3), "numpy"):
            resolved = get_backend(backend)
            index = resolved.profile_index(block_scheduling(dirty_blocks))
            graph = resolved.blocking_graph(index, "ARCS")
            for k in (1, 3):
                reference = cardinality_node_pruning(dirty_blocks, "ARCS", k=k)
                edges = resolved.pruned_edges(graph, "CNP", k)
                kept = to_comparisons(*edges, index.ids)
                assert kept == reference, f"{backend} diverged at k={k}"


class TestKeptStreams:
    """The retained streams of the four algorithms on cora (ARCS), where
    pruning changes the stream, as ``stream_digest`` read them before
    the edge-pruning algorithms and the budget knob were removed."""

    DIGESTS = {
        "WNP": (9775, "c854ed96de9851936b3c0dedebab44c3"),
        "CNP": (4019, "beb6c2369460f0d1d3e16aa5ae5cf524"),
        "RWNP": (5770, "13d408e2c2323f6440cdf81757c982ed"),
        "RCNP": (1813, "1670da7e3ee4268361316b2dceca8721"),
    }

    @pytest.fixture(scope="class")
    def cora_blocks(self):
        from repro.datasets.registry import load_dataset

        return token_blocking_workflow(load_dataset("cora", scale=0.5).store)

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("algorithm", ALL_ALGORITHMS)
    def test_digest_is_pinned(self, cora_blocks, algorithm, backend):
        from repro.service.snapshot import stream_digest

        if backend == "numpy":
            pytest.importorskip("numpy")
        kept = prune(cora_blocks, algorithm, "ARCS", backend=backend)
        assert (len(kept), stream_digest(kept)) == self.DIGESTS[algorithm]
