"""Single-build guarantee: one tokenization sweep per resolution session.

The session substrate is the only component allowed to touch the store's
attribute values; every consumer (method initialization, graph pruning,
block introspection) derives from its cached sweep.  The regression
tests count the profiles each backend's sweep tokenizes (the shared
``sweep_counter`` fixture: ``tokenization.distinct_profile_tokens``
calls on python, profiles covered by ``tokenize_range`` calls on the array
backends) - exactly ``len(store)`` means exactly one sweep.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.engine import HAS_NUMPY
from repro.pipeline import ERPipeline

BACKENDS = ["python"] + (["numpy", "numpy-parallel"] if HAS_NUMPY else [])

SUBSTRATE_METHODS = ["PPS", "PBS", "ONLINE", "LSPSN", "GSPSN"]

WORDS = ["ada", "bell", "curie", "darwin", "euler", "fermi", "gauss", "hopper"]


def make_data(n: int = 40, seed: int = 13) -> list[dict[str, str]]:
    rng = random.Random(seed)
    return [
        {
            "name": " ".join(rng.sample(WORDS, 3)),
            "year": str(1900 + rng.randrange(0, 30)),
        }
        for _ in range(n)
    ]


def pipeline_for(method: str, backend: str) -> ERPipeline:
    pipeline = ERPipeline().method(method).backend(backend)
    if backend == "numpy-parallel":
        # Inline shards: the counter lives in this process, and the
        # sharded build must not fork for a correctness test.
        pipeline = pipeline.parallel(workers=0, shards=3)
    return pipeline


class TestOneSweepPerResolve:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("method", SUBSTRATE_METHODS)
    def test_full_stream_tokenizes_each_profile_once(
        self, sweep_counter, method, backend
    ):
        resolver = pipeline_for(method, backend).fit(make_data())
        emitted = sum(1 for _ in resolver.stream())
        assert emitted > 0
        assert sweep_counter.profiles(backend) == len(resolver.store)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_pruning_stage_shares_the_sweep(self, sweep_counter, backend):
        resolver = (
            pipeline_for("PPS", backend).meta(pruning="WNP").fit(make_data())
        )
        emitted = sum(1 for _ in resolver.stream())
        assert emitted > 0
        assert sweep_counter.profiles(backend) == len(resolver.store)

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_blocks_property_costs_no_extra_sweep(self, sweep_counter, backend):
        resolver = pipeline_for("PBS", backend).fit(make_data())
        list(resolver.stream())
        assert resolver.blocks is not None
        assert len(resolver.blocks) > 0
        assert sweep_counter.profiles(backend) == len(resolver.store)

    def test_substrate_is_shared_between_resolver_and_method(self):
        resolver = pipeline_for("PPS", "python").fit(make_data())
        resolver.initialize()
        assert resolver.method is not None
        substrate = resolver.method._substrate
        assert substrate is resolver._session_substrate()
        assert substrate.sweeps == 1

    def test_substrate_survives_reset(self, sweep_counter):
        resolver = pipeline_for("ONLINE", "python").fit(make_data())
        list(resolver.stream())
        resolver.reset()
        list(resolver.stream())
        # reset() rebuilds the method but reuses the session substrate.
        assert sweep_counter.profiles("python") == len(resolver.store)


#: Every backend's sweep; the array one in RAM, into memmap storage and
#: sharded.
WALK_CELLS = ["python"] + (
    ["numpy", "numpy-memmap", "numpy-parallel"] if HAS_NUMPY else []
)


class TestOneStoreWalkPerResolve:
    """The sweep reads every profile once - its values and its source -
    and nothing else in a resolve reads the store again."""

    @pytest.mark.parametrize("cell", WALK_CELLS)
    @pytest.mark.parametrize("method", SUBSTRATE_METHODS)
    def test_each_profile_is_read_once(self, counting_store, method, cell):
        store = counting_store(make_data())
        pipeline = pipeline_for(method, cell.removesuffix("-memmap"))
        if cell.endswith("-memmap"):
            pipeline = pipeline.storage("memmap")
        resolver = pipeline.fit(store)
        try:
            assert sum(1 for _ in resolver.stream()) > 0
        finally:
            resolver.close()
        assert store.reads == Counter(range(len(store)))


@pytest.mark.skipif(not HAS_NUMPY, reason="the array substrate needs numpy")
class TestNamesOnDemand:
    """Token ids are alphabetical ranks: a token's name is decoded only
    when a consumer asks for block keys or the Neighbor List."""

    @pytest.fixture()
    def decodes(self, monkeypatch) -> list[int]:
        """Names decoded, one entry per ``decode_names`` call."""
        from repro.engine import substrate

        calls: list[int] = []
        decode = substrate.decode_names

        def counting(packed):
            names = decode(packed)
            calls.append(len(names))
            return names

        monkeypatch.setattr(substrate, "decode_names", counting)
        return calls

    @pytest.mark.parametrize("method", ["PPS", "PBS"])
    def test_progressive_resolves_decode_no_name(self, decodes, method):
        resolver = pipeline_for(method, "numpy").fit(make_data())
        assert sum(1 for _ in resolver.stream()) > 0
        assert decodes == []

    def test_decided_resolve_decodes_no_name(self, decodes):
        resolver = pipeline_for("PPS", "numpy").match().fit(make_data())
        assert sum(1 for _ in resolver.resolve_stream(decide=True)) > 0
        assert decodes == []

    def test_blocks_and_neighbor_list_decode_once(self, decodes):
        data = make_data()
        resolver = pipeline_for("PBS", "numpy").fit(data)
        reference = pipeline_for("PBS", "python").fit(data)
        assert [(block.key, block.ids) for block in resolver.blocks] == [
            (block.key, block.ids) for block in reference.blocks
        ]
        built = resolver._session_substrate().neighbor_list("insertion", 0)
        expected = reference._session_substrate().neighbor_list("insertion", 0)
        assert built.keys == expected.keys
        assert built.entries == expected.entries
        assert len(decodes) == 1


class TestSubstrateOptOut:
    def test_custom_blocking_scheme_bypasses_the_substrate(self):
        resolver = (
            ERPipeline().blocking("suffix").method("PPS").fit(make_data())
        )
        resolver.initialize()
        assert resolver._session_substrate() is None

    def test_method_level_workflow_knobs_opt_out(self):
        resolver = (
            ERPipeline()
            .method("PPS", purge_ratio=0.5)
            .fit(make_data())
        )
        resolver.initialize()
        # The method builds privately (its knob differs from the stage's);
        # the session substrate must not be injected underneath it.
        assert resolver.method._substrate is not None
        assert resolver.method._substrate is not resolver._built.substrate
        assert resolver.method._substrate.spec.purge_ratio == 0.5
