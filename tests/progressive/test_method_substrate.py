"""One way from a method to its substrate (``method_substrate``): a
substrate of the other backend's kind is refused, and both backends
refuse the same workflow ratios (checked once, by ``SubstrateSpec``)."""

from __future__ import annotations

import pytest

from repro.blocking.substrate import ReferenceSubstrate, SubstrateSpec
from repro.engine import HAS_NUMPY
from repro.errors import ConfigError
from repro.pipeline import ERPipeline
from repro.progressive import LSPSN, PPS
from repro.registry import progressive_methods

BACKENDS = ("python", "numpy") if HAS_NUMPY else ("python",)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("method", ["PPS", "PBS", "ONLINE"])
@pytest.mark.parametrize("knobs", [{"purge_ratio": 2.0}, {"filter_ratio": 0}], ids=str)
def test_both_backends_refuse_bad_ratios(paper_profiles, backend, method, knobs):
    with pytest.raises(ConfigError, match=next(iter(knobs))):
        progressive_methods.build(method, paper_profiles, backend=backend, **knobs)


@pytest.mark.parametrize("knobs", [{"purge_ratio": -0.1}, {"filter_ratio": 2}], ids=str)
def test_spec_refuses_ratios_outside_0_1(knobs):
    with pytest.raises(ConfigError, match=next(iter(knobs))):
        SubstrateSpec(**knobs)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("max_window", [0, -3])
def test_ls_psn_refuses_a_window_below_one(paper_profiles, backend, max_window):
    with pytest.raises(ValueError, match="max_window must be positive"):
        LSPSN(paper_profiles, max_window=max_window, backend=backend)
    assert list(LSPSN(paper_profiles, max_window=None, backend=backend))


@pytest.mark.skipif(not HAS_NUMPY, reason="needs the repro[speed] extra")
@pytest.mark.parametrize("method", ["PPS", "PBS", "ONLINE", "LS-PSN", "GS-PSN"])
@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_a_substrate_of_the_other_kind_is_refused(paper_profiles, method, backend):
    from repro.engine.substrate import ArraySubstrate

    other = ArraySubstrate if backend == "python" else ReferenceSubstrate
    substrate = other(paper_profiles, SubstrateSpec(purge_ratio=None))
    with pytest.raises(ConfigError, match=f"{other.__name__} cannot feed"):
        progressive_methods.build(
            method, paper_profiles, backend=backend, substrate=substrate
        )


@pytest.mark.skipif(not HAS_NUMPY, reason="needs the repro[speed] extra")
def test_a_method_level_backend_builds_its_own_substrate(paper_profiles):
    pipeline = ERPipeline().blocking("token", purge=None).backend("numpy")
    resolver = pipeline.method("PPS", backend="python").fit(paper_profiles)
    pairs = [c.pair for c in resolver.stream()]
    assert pairs == [c.pair for c in PPS(paper_profiles, purge_ratio=None)]
