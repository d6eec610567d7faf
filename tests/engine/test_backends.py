"""Backend registry, selection plumbing and graceful degradation."""

from __future__ import annotations

import pytest

from repro.engine import available_backends, get_backend
from repro.pipeline import ERPipeline
from repro.registry import backends


class TestBackendRegistry:
    def test_stock_backends_registered(self):
        names = backends.names()
        assert "python" in names and "numpy" in names

    def test_alias_spellings(self):
        assert backends.canonical("np") == "numpy"
        assert backends.canonical("PY") == "python"
        assert backends.canonical("CSR") == "numpy"

    def test_unknown_backend_fails_fast(self):
        with pytest.raises(ValueError, match="unknown backend"):
            ERPipeline().backend("cuda")

    def test_python_backend_always_available(self):
        assert "python" in available_backends()
        assert get_backend("python").require() is get_backend("python")

    def test_python_backend_not_vectorized(self):
        assert not get_backend("python").vectorized


class TestGracefulDegradation:
    def test_missing_numpy_error_is_actionable(self, monkeypatch):
        import repro.engine as engine

        monkeypatch.setattr(engine, "HAS_NUMPY", False)
        with pytest.raises(ModuleNotFoundError, match=r"repro\[speed\]"):
            engine.require_numpy()

    def test_numpy_method_fails_fast_without_numpy(
        self, monkeypatch, paper_profiles
    ):
        import repro.engine as engine

        monkeypatch.setattr(engine, "HAS_NUMPY", False)
        from repro.progressive import PPS

        with pytest.raises(ModuleNotFoundError, match="backend='numpy'"):
            PPS(paper_profiles, backend="numpy")

    def test_available_backends_reports_python_only(self, monkeypatch):
        import repro.engine as engine

        monkeypatch.setattr(engine, "HAS_NUMPY", False)
        assert "python" in available_backends()
        assert "numpy" not in available_backends()

    def test_config_validation_works_without_numpy(self, monkeypatch):
        """Specs naming the numpy backend stay loadable on machines
        without numpy; only *building* the method requires it."""
        import repro.engine as engine

        monkeypatch.setattr(engine, "HAS_NUMPY", False)
        spec = ERPipeline().method("PPS").backend("numpy").to_dict()
        assert ERPipeline.from_dict(spec).config.backend == "numpy"


class TestMethodBackendPlumbing:
    def test_default_backend_is_python(self, paper_profiles):
        from repro.progressive import PPS

        assert PPS(paper_profiles).backend.name == "python"

    def test_resolver_injects_configured_backend(self, paper_profiles):
        numpy = pytest.importorskip("numpy")  # noqa: F841
        resolver = (
            ERPipeline().method("PPS").backend("numpy").fit(paper_profiles)
        )
        method = resolver.build_method()
        assert method.backend.name == "numpy"

    def test_backendless_methods_ignore_setting(self, paper_profiles):
        """SA-PSN has no backend seam; the pipeline must not inject one."""
        resolver = (
            ERPipeline().method("SA-PSN").backend("numpy").fit(paper_profiles)
        )
        method = resolver.build_method()
        assert not hasattr(method, "backend")
