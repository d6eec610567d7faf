"""Backend parity: the numpy engine must emit the reference stream.

The contract is strict: for every weighting scheme x method combination,
the python and numpy backends produce the *same comparisons in the same
order*, with weights equal within float tolerance (in practice the
engine is engineered to be bit-identical - see repro/engine/weights.py -
but the assertion tolerates last-ulp drift across numpy versions).
"""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro.errors import ConfigError  # noqa: E402
from repro.neighborlist.rcf import NeighborWeighting  # noqa: E402
from repro.pipeline import ERPipeline, resolve  # noqa: E402
from repro.registry import progressive_methods  # noqa: E402

build = progressive_methods.build

GRAPH_SCHEMES = ("ARCS", "CBS", "ECBS", "JS", "EJS")
PSN_SCHEMES = ("RCF", "CF")

# Emission prefix compared per combination; long enough to cover the
# initialization output plus several refills of every method.
PREFIX = 30_000


def both_streams(method: str, store, **kwargs):
    python = build(method, store, backend="python", **kwargs)
    numpy_ = build(method, store, backend="numpy", **kwargs)
    import itertools

    a = list(itertools.islice(iter(python), PREFIX))
    b = list(itertools.islice(iter(numpy_), PREFIX))
    return a, b


def assert_streams_match(a, b):
    assert len(a) == len(b)
    assert [c.pair for c in a] == [c.pair for c in b]
    np.testing.assert_allclose(
        [c.weight for c in a], [c.weight for c in b], rtol=1e-12, atol=0.0
    )


class CountedRCF(NeighborWeighting):
    """RCF through ``index.appearance_count``, not a subclass of the
    stock schemes: the numpy core applies it pair by pair."""

    name = "counted-RCF"

    def __init__(self) -> None:
        self.indexes: set[str] = set()

    def weight(self, frequency, i, j, index):
        self.indexes.add(type(index).__name__)
        appearances = index.appearance_count(i) + index.appearance_count(j)
        if appearances <= frequency:
            return float(frequency)
        return frequency / (appearances - frequency)


class TestEqualityMethodParity:
    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    def test_pps_dirty(self, dirty_dataset, scheme):
        assert_streams_match(
            *both_streams("PPS", dirty_dataset.store, weighting=scheme)
        )

    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    def test_pbs_dirty(self, dirty_dataset, scheme):
        assert_streams_match(
            *both_streams("PBS", dirty_dataset.store, weighting=scheme)
        )

    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    def test_pps_clean_clean(self, clean_clean_store, scheme):
        assert_streams_match(
            *both_streams("PPS", clean_clean_store, weighting=scheme)
        )

    @pytest.mark.parametrize("scheme", GRAPH_SCHEMES)
    def test_pbs_clean_clean(self, clean_clean_store, scheme):
        assert_streams_match(
            *both_streams("PBS", clean_clean_store, weighting=scheme)
        )

    @pytest.mark.parametrize("fixture", ["clean_clean_store", "dirty_dataset"])
    def test_pps_exhaustive_tail(self, fixture, request, monkeypatch):
        """The optional exhaustive tail drains identically too - and the
        engine weighs it a range of blocks at a time, never through the
        scalar ``weight`` (about 60 us a pair: regression, it made the
        numpy tail 3-4x slower than the reference it accelerates)."""
        from repro.engine.weights import ArrayBlockingGraph

        store = request.getfixturevalue(fixture)
        store = getattr(store, "store", store)
        scalar_calls = []
        monkeypatch.setattr(
            ArrayBlockingGraph,
            "weight",
            lambda self, i, j: scalar_calls.append((i, j)),
        )
        # k_max=1 leaves comparisons to the tail (asserted below).
        python, numpy_ = both_streams("PPS", store, exhaustive=True, k_max=1)
        assert_streams_match(python, numpy_)
        assert not scalar_calls
        # The tail was reached and drained (the prefix did not cut it).
        scheduled = build("PPS", store, k_max=1)
        scheduled.initialize()
        blocks = scheduled.profile_index.collection
        assert len(numpy_) < PREFIX
        assert {c.pair for c in numpy_} == blocks.distinct_pairs()
        assert {c.pair for c in scheduled} < blocks.distinct_pairs()

    def test_pps_fixed_k_max(self, dirty_dataset):
        assert_streams_match(*both_streams("PPS", dirty_dataset.store, k_max=3))

    def test_pps_profile_comparisons_tracks_set_mutation(self, dirty_dataset):
        """The reference step honors arbitrary in-place mutations of the
        checked set, including same-size swaps: a mutated set answers as
        a fresh set of the same members does (the array twin that cached
        on set identity and size is gone; the step is python only)."""
        method = build("PPS", dirty_dataset.store, backend="python")
        method.initialize()
        pid = method.sorted_profile_list[0][0]
        neighbors = [
            c.j if c.i == pid else c.i for c in method.profile_comparisons(pid, {pid})
        ]
        assert len(neighbors) >= 2
        checked = {pid, neighbors[0]}
        before = method.profile_comparisons(pid, checked)
        assert neighbors[0] not in {c.i for c in before} | {c.j for c in before}
        # Same object, same size, different membership.
        checked.discard(neighbors[0])
        checked.add(neighbors[1])
        after = method.profile_comparisons(pid, checked)
        assert after == method.profile_comparisons(pid, set(checked))
        assert neighbors[0] in {c.i for c in after} | {c.j for c in after}
        assert neighbors[1] not in {c.i for c in after} | {c.j for c in after}

    @pytest.mark.parametrize(
        "name,step,arguments",
        [("PPS", "profile_comparisons", (0, {0})), ("PBS", "block_comparisons", (0,))],
    )
    def test_the_reference_steps_refuse_an_array_backend(
        self, dirty_dataset, name, step, arguments
    ):
        """One step of the reference emission has no array twin: the
        array stream is ``chunks()``, so the step names the backend that
        runs it."""
        method = build(name, dirty_dataset.store, backend="numpy")
        method.initialize()
        with pytest.raises(ConfigError, match='backend="python"'):
            getattr(method, step)(*arguments)

    def test_standalone_ejs_scheme_via_backend_seam(self, dirty_dataset):
        """An EJS graph must weigh a pair before any of its rows exist
        (regression: it used to raise until prepare() was called)."""
        from repro.blocking.scheduling import block_scheduling
        from repro.blocking.workflow import token_blocking_workflow
        from repro.engine import get_backend
        from repro.engine.weights import ArrayBlockingGraph
        from repro.metablocking.profile_index import ProfileIndex
        from repro.metablocking.weights import make_scheme

        scheduled = block_scheduling(
            token_blocking_workflow(dirty_dataset.store)
        )
        graph = ArrayBlockingGraph(
            get_backend("numpy").profile_index(scheduled), "EJS"
        )
        reference = make_scheme("EJS", ProfileIndex(scheduled))
        pairs = [(0, 1), (2, 9), (5, 40)]
        for i, j in pairs:
            assert graph.weight(i, j) == pytest.approx(
                reference.weight(i, j), rel=1e-12
            )


class TestSimilarityMethodParity:
    @pytest.mark.parametrize("scheme", PSN_SCHEMES)
    def test_ls_psn_dirty(self, dirty_dataset, scheme):
        assert_streams_match(
            *both_streams(
                "LS-PSN", dirty_dataset.store, weighting=scheme, max_window=8
            )
        )

    @pytest.mark.parametrize("scheme", PSN_SCHEMES)
    def test_gs_psn_dirty(self, dirty_dataset, scheme):
        assert_streams_match(
            *both_streams("GS-PSN", dirty_dataset.store, weighting=scheme)
        )

    def test_ls_psn_clean_clean(self, clean_clean_store):
        assert_streams_match(
            *both_streams("LS-PSN", clean_clean_store, max_window=6)
        )

    def test_gs_psn_clean_clean(self, clean_clean_store):
        assert_streams_match(*both_streams("GS-PSN", clean_clean_store))

    def test_gs_psn_second_iteration_empty_on_both_backends(
        self, clean_clean_store
    ):
        """Emission is destructive on both backends: a second iteration
        of a GS-PSN method yields nothing (the python path drains its
        ComparisonList; the numpy path consumes its arrays)."""
        for backend in ("python", "numpy"):
            method = build("GS-PSN", clean_clean_store, backend=backend)
            first = list(iter(method))
            assert first, backend
            assert list(iter(method)) == [], backend

    def test_custom_weighting_instance_falls_back(self, clean_clean_store):
        """A user-supplied NeighborWeighting still works on the engine
        (vectorized counting, per-pair weighting)."""

        class Halved(NeighborWeighting):
            name = "halved"

            def weight(self, frequency, i, j, index):
                return frequency / 2.0

        python_m = build(
            "GS-PSN", clean_clean_store, backend="python", weighting=Halved()
        )
        numpy_m = build(
            "GS-PSN", clean_clean_store, backend="numpy", weighting=Halved()
        )
        assert_streams_match(list(iter(python_m)), list(iter(numpy_m)))

    @pytest.mark.parametrize("name", ["LS-PSN", "GS-PSN"])
    def test_custom_weighting_reads_the_core_appearance_count(
        self, clean_clean_store, name
    ):
        """A custom weighting's index on the engine is the PSN core,
        whose ``appearance_count(i)`` is ``PositionIndex``'s
        (docs/migration.md, second round), so RCF recomputed from it
        streams alike on both backends."""
        streams, indexes = [], set()
        for backend in ("python", "numpy"):
            weighting = CountedRCF()
            method = build(
                name,
                clean_clean_store,
                backend=backend,
                weighting=weighting,
                max_window=6,
            )
            streams.append(list(method))
            indexes |= weighting.indexes
        assert streams[0] and indexes == {"PositionIndex", "ArrayPSNCore"}
        assert_streams_match(*streams)


class TestPipelineBackendParity:
    def test_pipeline_backend_stream(self, dirty_dataset):
        def run(backend: str):
            resolver = (
                ERPipeline()
                .method("PPS")
                .backend(backend)
                .budget(comparisons=2000)
                .fit(dirty_dataset)
            )
            return list(resolver.stream())

        assert_streams_match(run("python"), run("numpy"))

    def test_resolve_backend_kwarg(self, dirty_dataset):
        a = resolve(dirty_dataset, method="PBS", budget=1500, backend="python")
        b = resolve(dirty_dataset, method="PBS", budget=1500, backend="numpy")
        assert_streams_match(a.pairs, b.pairs)
        assert a.recall == b.recall

    def test_backend_round_trips_through_dict(self):
        spec = ERPipeline().method("PPS").backend("np").to_dict()
        assert spec["backend"] == "numpy"
        rebuilt = ERPipeline.from_dict(spec)
        assert rebuilt.config.backend == "numpy"

    def test_evaluate_curves_match(self, dirty_dataset):
        curves = {}
        for backend in ("python", "numpy"):
            resolver = (
                ERPipeline().method("PPS").backend(backend).fit(dirty_dataset)
            )
            curves[backend] = resolver.evaluate(max_ec_star=5.0)
        assert (
            curves["python"].hit_positions == curves["numpy"].hit_positions
        )
