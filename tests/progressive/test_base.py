"""Unit tests for the progressive-method base protocol and registry."""

from __future__ import annotations

import pytest

from repro.core.comparisons import Comparison
from repro.core.profiles import ProfileStore
from repro.progressive.base import ProgressiveMethod
from repro.registry import progressive_methods


class Dummy(ProgressiveMethod):
    name = "dummy"

    def __init__(self, store):
        super().__init__(store)
        self.setup_calls = 0

    def _setup(self):
        self.setup_calls += 1

    def _emit(self):
        yield Comparison(0, 1, 1.0)
        yield Comparison(1, 2, 0.5)


@pytest.fixture()
def store() -> ProfileStore:
    return ProfileStore.from_attribute_maps([{"a": str(i)} for i in range(3)])


class TestProtocol:
    def test_initialize_is_idempotent(self, store):
        method = Dummy(store)
        method.initialize()
        method.initialize()
        assert method.setup_calls == 1

    def test_iteration_initializes_lazily(self, store):
        method = Dummy(store)
        assert method.setup_calls == 0
        assert [c.pair for c in method] == [(0, 1), (1, 2)]
        assert method.setup_calls == 1

    def test_next_comparison_steps_through(self, store):
        method = Dummy(store)
        assert method.next_comparison().pair == (0, 1)
        assert method.next_comparison().pair == (1, 2)
        assert method.next_comparison() is None

    def test_reset_restarts_emission(self, store):
        method = Dummy(store)
        method.next_comparison()
        method.reset()
        assert method.next_comparison().pair == (0, 1)
        assert method.setup_calls == 1  # initialization is kept


class TestRegistry:
    def test_all_paper_methods_registered(self):
        expected = {"PSN", "SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS"}
        assert expected <= set(progressive_methods.names())

    def test_build_by_acronym_with_dash(self, store):
        method = progressive_methods.build("sa-psn", store)
        assert method.name == "SA-PSN"

    def test_build_accepts_any_spelling(self, store):
        for spelling in ("SAPSN", "sa_psn", "Sa-Psn"):
            assert progressive_methods.build(spelling, store).name == "SA-PSN"

    def test_unknown_method(self, store):
        with pytest.raises(ValueError, match="unknown progressive method"):
            progressive_methods.build("XYZ", store)

    def test_subclass_without_name_cannot_hijack_parent(self, store):
        from repro.progressive import PPS
        from repro.progressive.base import register_method

        @register_method("MyPPS")
        class MyPPS(PPS):  # inherits name = "PPS"; must register as MyPPS
            pass

        try:
            assert type(progressive_methods.build("PPS", store)) is PPS
            assert type(progressive_methods.build("MyPPS", store)) is MyPPS
        finally:
            progressive_methods.unregister("MyPPS")
