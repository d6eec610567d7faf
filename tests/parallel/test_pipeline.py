"""The pipeline surface of the parallel layer: registry entry, spec
round-trip, facade knobs and batch probes on a pooled session."""

from __future__ import annotations

import pytest

np = pytest.importorskip("numpy")

from repro import ERPipeline, ParallelConfig, resolve  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402
from repro.registry import backends  # noqa: E402


class TestRegistry:
    def test_registered_under_every_spelling(self):
        for spelling in ("numpy-parallel", "NUMPY_PARALLEL", "parallel", "sharded"):
            assert backends.canonical(spelling) == "numpy-parallel"

    def test_registry_builds_fresh_configured_instances(self):
        backend = backends.build("numpy-parallel")
        assert isinstance(backend, ParallelBackend)
        assert backend.vectorized and backend.workers >= 0

    def test_available_backends_lists_parallel(self):
        from repro.engine import available_backends

        assert "numpy-parallel" in available_backends()

    def test_get_backend_passes_instances_through(self):
        from repro.engine import get_backend

        configured = ParallelBackend(workers=0, shards=5)
        assert get_backend(configured) is configured


class TestSpecRoundTrip:
    def test_parallel_stage_round_trips(self):
        spec = (
            ERPipeline()
            .method("PPS")
            .parallel(workers=3, shards=5)
            .to_dict()
        )
        assert spec["backend"] == "numpy-parallel"
        assert spec["parallel"] == {"workers": 3, "shards": 5}
        rebuilt = ERPipeline.from_dict(spec)
        assert rebuilt.config.parallel == ParallelConfig(3, 5)

    def test_disable_falls_back_to_sequential_numpy(self):
        pipeline = ERPipeline().parallel(workers=2).parallel(enabled=False)
        assert pipeline.config.backend == "numpy"
        assert pipeline.config.parallel is None

    def test_auto_workers_stay_none_in_spec(self):
        """A spec written on one machine must not bake in its core count."""
        spec = ERPipeline().parallel().to_dict()
        assert spec["parallel"]["workers"] is None

    def test_invalid_knobs_fail_fast(self):
        with pytest.raises(ValueError):
            ParallelConfig(workers=-1)
        with pytest.raises(ValueError):
            ParallelConfig(shards=0)
        with pytest.raises(ValueError, match="unknown parallel config keys"):
            ERPipeline.from_dict({"parallel": {"workers": 2, "ship": "pickle"}})
        with pytest.raises(ValueError):
            ParallelBackend(workers=-2)

    def test_clone_copies_parallel_stage(self):
        base = ERPipeline().parallel(workers=0, shards=2)
        fork = base.clone().parallel(enabled=False)
        assert base.config.parallel is not None
        assert fork.config.parallel is None


class TestResolverWiring:
    def test_fit_hands_methods_a_configured_backend(self, dirty_dataset):
        resolver = (
            ERPipeline()
            .method("PPS")
            .parallel(workers=0, shards=4)
            .fit(dirty_dataset)
        )
        method = resolver.build_method()
        assert isinstance(method.backend, ParallelBackend)
        assert method.backend.workers == 0 and method.backend.shards == 4

    def test_stream_matches_sequential_backend(self, dirty_dataset):
        def run(pipeline):
            return [
                c.pair
                for c in pipeline.budget(comparisons=500)
                .fit(dirty_dataset)
                .stream()
            ]

        sequential = run(ERPipeline().method("PPS").backend("numpy"))
        parallel = run(
            ERPipeline().method("PPS").parallel(workers=0, shards=3)
        )
        assert parallel == sequential

    def test_facade_workers_kwarg_implies_parallel(self, dirty_dataset):
        sequential = resolve(
            dirty_dataset, method="PBS", budget=400, backend="numpy"
        )
        parallel = resolve(
            dirty_dataset, method="PBS", budget=400, workers=0, shards=2
        )
        assert [c.pair for c in parallel.pairs] == [
            c.pair for c in sequential.pairs
        ]
        assert parallel.recall == sequential.recall


class TestResolveMany:
    records = [
        {"name": "Carl White", "profession": "Tailor", "city": "NY"},
        {"name": "Karl White", "profession": "Tailor", "city": "NY"},
        {"name": "Ellen White", "profession": "Teacher", "city": "ML"},
        {"name": "Carla Black", "profession": "Baker", "city": "SF"},
    ]
    probes = [
        {"name": "Karl White NY"},
        {"name": "Ellen White ML teacher"},
        {"name": "Nobody Similar"},
        {"name": "Carla Black baker SF"},
        {"name": "Carl White tailor"},
    ]

    def session(self, workers=0):
        return (
            ERPipeline()
            .blocking("token", purge=None)
            .incremental()
            .parallel(workers=workers)
            .fit(self.records)
        )

    def test_matches_sequential_probe_loop(self):
        session = self.session()
        expected = [
            session.resolve_one(probe, ingest=False) for probe in self.probes
        ]
        assert session.resolve_many(self.probes) == expected

    def test_probes_do_not_mutate_the_session(self):
        session = self.session()
        before = len(session.store)
        session.resolve_many(self.probes)
        assert len(session.store) == before
        assert session.progress().emitted == 0

    def test_pooled_session_probes_like_an_inline_one(self):
        """Probes are scored in-process whatever the ``.parallel(...)``
        stage says; only ``stream()`` fans out."""
        inline = self.session(workers=0).resolve_many(self.probes)
        pooled = self.session(workers=2).resolve_many(self.probes)
        assert pooled == inline

    def test_empty_batch(self):
        assert self.session().resolve_many([]) == []

    def test_source_count_mismatch_rejected(self):
        with pytest.raises((ValueError, IndexError)):
            self.session().resolve_many(self.probes, sources=[0])
