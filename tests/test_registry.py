"""Unit tests for the shared component registry."""

from __future__ import annotations

import pytest

from repro.registry import (
    ComponentRegistry,
    blocking_schemes,
    get_registry,
    matchers,
    normalize,
    progressive_methods,
    weighting_schemes,
)


class TestNormalize:
    def test_spellings_collapse(self):
        assert normalize("SA-PSN") == normalize("sapsn") == normalize("sa_psn")
        assert normalize("Sa Psn") == "SAPSN"

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="unusable component name"):
            normalize("--")


class TestComponentRegistry:
    @pytest.fixture()
    def registry(self) -> ComponentRegistry:
        registry = ComponentRegistry("widget")

        @registry.register("My-Widget", aliases=("mw",))
        class Widget:
            def __init__(self, size: int = 1):
                self.size = size

        return registry

    def test_lookup_any_spelling(self, registry):
        for spelling in ("My-Widget", "mywidget", "MY_WIDGET", "mw"):
            assert registry.get(spelling) is registry.get("My-Widget")

    def test_canonical_spelling_preserved(self, registry):
        assert registry.names() == ["My-Widget"]
        assert registry.canonical("mywidget") == "My-Widget"

    def test_unknown_lists_available(self, registry):
        with pytest.raises(ValueError, match=r"unknown widget 'nope'.*My-Widget"):
            registry.get("nope")

    def test_build_surfaces_signature_on_bad_kwargs(self, registry):
        with pytest.raises(TypeError, match=r"accepted signature: My-Widget"):
            registry.build("mw", wrong_kwarg=3)

    def test_build_passes_kwargs(self, registry):
        assert registry.build("mw", size=7).size == 7

    def test_accepts(self, registry):
        assert registry.accepts("mw", "size")
        assert not registry.accepts("mw", "blocks")

    def test_reregister_overwrites(self, registry):
        registry.register("My-Widget", lambda: "new")
        assert registry.build("mywidget") == "new"

    def test_entry_registered_over_existing_alias_wins(self, registry):
        # "mw" is an alias of My-Widget; registering a component named
        # "mw" must make that component reachable, not the alias target.
        registry.register("mw", lambda: "direct")
        assert registry.build("mw") == "direct"
        assert registry.get("My-Widget") is not None  # original still there

    def test_unregister(self, registry):
        registry.unregister("mw")
        assert "My-Widget" not in registry
        assert len(registry) == 0

    def test_describe_contains_signature(self, registry):
        assert "size" in registry.describe()["My-Widget"]

    def test_bare_decorator_form(self):
        registry = ComponentRegistry("thing")

        @registry.register
        class Bare:
            name = "bare-thing"

        assert Bare.__name__ == "Bare"  # the class itself comes back
        assert registry.get("barething") is Bare

    def test_name_defaults_to_class_attribute(self):
        registry = ComponentRegistry("thing")

        class Named:
            name = "X-Y"

        registry.register(factory=Named)
        assert registry.names() == ["X-Y"]
        assert registry.get("xy") is Named


class TestStockRegistries:
    def test_methods_use_paper_spelling(self):
        assert {"SA-PSN", "SA-PSAB", "LS-PSN", "GS-PSN", "PBS", "PPS", "PSN"} <= set(
            progressive_methods.names()
        )

    def test_weighting_schemes_present(self):
        assert weighting_schemes.names() == ["ARCS", "CBS", "ECBS", "EJS", "JS"]

    def test_blocking_schemes_present(self):
        assert {"standard", "suffix", "token"} <= set(blocking_schemes.names())

    def test_matchers_present_with_paper_aliases(self):
        assert matchers.canonical("JS") == "jaccard"
        assert matchers.canonical("ED") == "edit-distance"
        assert "oracle" in matchers

    def test_pruning_algorithms_present(self):
        from repro.registry import pruning_algorithms

        assert pruning_algorithms.names() == [
            "CEP",
            "CNP",
            "RCNP",
            "RWNP",
            "WEP",
            "WNP",
        ]
        assert pruning_algorithms.canonical("weighted-edge-pruning") == "WEP"
        assert pruning_algorithms.canonical("reciprocal_wnp") == "RWNP"
        assert pruning_algorithms.entry("cnp").metadata["takes_k"] is True
        assert pruning_algorithms.entry("wep").metadata["takes_k"] is False

    def test_every_backend_builds_the_seam_base_class(self):
        from repro.engine import Backend
        from repro.registry import backends

        assert {"python", "numpy", "numpy-parallel"} <= set(backends.names())
        for name in backends.names():
            assert isinstance(backends.build(name), Backend), name

    def test_get_registry(self):
        assert get_registry("method") is progressive_methods
        assert get_registry("weighting") is weighting_schemes
        from repro.registry import pruning_algorithms

        assert get_registry("pruning") is pruning_algorithms
        with pytest.raises(ValueError, match="unknown registry kind"):
            get_registry("nope")

    def test_user_extension_round_trip(self):
        from repro.matching.match_functions import JaccardMatcher

        matchers.register("my-matcher", JaccardMatcher, aliases=("mym",))
        try:
            assert matchers.build("MYM", threshold=0.9).threshold == 0.9
        finally:
            matchers.unregister("my-matcher")
