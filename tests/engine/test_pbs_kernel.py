"""Generated differential test of the PBS range kernel.

:func:`repro.engine.equality.new_block_pairs` decides the LeCoBI test
and the raw weight of every pair by probing the Profile Index; the
reference path decides both with per-pair list merges.  Hypothesis
builds small stores over a six-token alphabet - so that profiles share
many, few and no blocks, blocks of one profile or of one source exist,
and a failing case shrinks to something readable - and the two must
agree bit for bit, block by block, in emission order, under all five
weighting schemes; and the kernel over *any* cut of the block axis must
concatenate to the kernel over the whole axis, which is what lets PBS
stream it a range at a time.
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.blocking.base import Block, BlockCollection  # noqa: E402
from repro.blocking.scheduling import block_scheduling  # noqa: E402
from repro.core.comparisons import Comparison, ComparisonList  # noqa: E402
from repro.core.profiles import ProfileStore  # noqa: E402
from repro.engine.csr import ArrayProfileIndex  # noqa: E402
from repro.engine.equality import ArrayPBSCore, new_block_pairs  # noqa: E402
from repro.engine.weights import ArrayBlockingGraph  # noqa: E402
from repro.metablocking.profile_index import ProfileIndex  # noqa: E402
from repro.metablocking.weights import make_scheme  # noqa: E402

TOKENS = "abcdef"
SCHEMES = ("ARCS", "CBS", "ECBS", "JS", "EJS")


class CrowdedFilterGraph(ArrayBlockingGraph):
    """One filter slot per key instead of eight: on inputs this small
    the stock table has next to no false positives, this one has plenty,
    and every one of them must die in the exact confirm."""

    FILTER_SLOTS = 1


@st.composite
def scheduled_blocks(draw) -> BlockCollection:
    """One block per token over a dirty or a clean-clean store.

    Blocks are built directly, not through the blocking workflow, so the
    blocks that entail no comparison (one profile; one source only) stay
    in: they are never a pair's common block, but they count in
    ``|B_i|`` and ``|B|``.
    """
    token_sets = draw(
        st.lists(st.frozensets(st.sampled_from(TOKENS)), min_size=1, max_size=12)
    )
    records = [{"text": " ".join(sorted(tokens))} for tokens in token_sets]
    if draw(st.booleans()):
        split = draw(st.integers(0, len(records)))
        store = ProfileStore.clean_clean(records[:split], records[split:])
    else:
        store = ProfileStore.from_attribute_maps(records)
    members = {
        token: [pid for pid, tokens in enumerate(token_sets) if token in tokens]
        for token in TOKENS
    }
    blocks = [Block(token, ids, store) for token, ids in members.items() if ids]
    return block_scheduling(BlockCollection(blocks, store))


@given(scheduled_blocks())
@settings(max_examples=60, deadline=None)
def test_kernel_equals_the_reference_block_by_block(scheduled):
    reference_index = ProfileIndex(scheduled)
    index = ArrayProfileIndex(scheduled)
    er_type = scheduled.store.er_type
    graphs = [ArrayBlockingGraph(index, name) for name in SCHEMES]
    graphs.append(CrowdedFilterGraph(index, "ARCS"))
    for graph in graphs:
        name = graph.scheme.name
        scheme = make_scheme(name, reference_index)
        core = ArrayPBSCore(index, graph)
        for block in scheduled:
            expected = ComparisonList(
                Comparison(c.i, c.j, scheme.weight(c.i, c.j))
                for c in block.comparisons(er_type)
                if reference_index.is_first_encounter(c.i, c.j, block.block_id)
            )
            # Comparison is a tuple: == on it is exact, floats included.
            assert core.block_comparisons(block.block_id) == list(
                expected.drain()
            ), (name, block.block_id)


@given(scheduled_blocks(), st.data())
@settings(max_examples=60, deadline=None)
def test_any_cut_of_the_block_axis_concatenates_to_the_whole(scheduled, data):
    index = ArrayProfileIndex(scheduled)
    block_count = index.block_count()
    payload = ArrayBlockingGraph(index, "ARCS").payload
    whole = new_block_pairs(payload, (0, block_count))
    generated = sorted(data.draw(st.lists(st.integers(0, block_count), max_size=6)))
    # Repeated cut points are empty ranges; the second cut is block by block.
    for bounds in ([0, *generated, block_count], list(range(block_count + 1))):
        parts = [
            new_block_pairs(payload, shard) for shard in zip(bounds, bounds[1:])
        ]
        for column, expected in zip(zip(*parts), whole):
            np.testing.assert_array_equal(np.concatenate(column), expected)
