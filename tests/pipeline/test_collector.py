"""The cyclic collector around emission: chunks are built with it paused,
and however a consumer drains a method - ``next_batch``, ``stream()`` or
iterating the method - it ends as the caller set it: enabled, or still
disabled by the caller.  That holds when a method raises mid-chunk and
when several threads drain their own sessions at once.

The numpy halves skip without numpy; the python halves always run.
"""

from __future__ import annotations

import functools
import gc
import sys
import threading

import pytest

import repro.core.comparisons as comparisons
from repro import ERPipeline
from repro.core.comparisons import Comparison
from repro.datasets import load_dataset
from repro.engine import HAS_NUMPY
from repro.progressive.base import ProgressiveMethod
from repro.registry import progressive_methods
from repro.service.snapshot import stream_digest

needs_numpy = pytest.mark.skipif(not HAS_NUMPY, reason="needs numpy")
BACKENDS = ["python", pytest.param("numpy", marks=needs_numpy)]

#: 252 profiles; every stream below spans several 100-comparison chunks.
census = functools.cache(lambda: load_dataset("census", scale=0.3))

METHODS = {
    "PPS": {},
    "PBS": {},
    "ONLINE": {},
    "GS-PSN": {"max_window": 6},
    "LS-PSN": {"max_window": 4},
}


@pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
def collector(request):
    """The caller's collector setting, restored after the test."""
    was_enabled = gc.isenabled()
    (gc.enable if request.param else gc.disable)()
    try:
        yield request.param
    finally:
        (gc.enable if was_enabled else gc.disable)()


def drain(method, backend, how):
    params = METHODS[method]
    if how == "iter":
        store = census().store
        return list(progressive_methods.build(method, store, backend=backend, **params))
    resolver = ERPipeline().method(method, **params).backend(backend).fit(census())
    if how == "stream":
        return list(resolver.stream())
    out = []
    while batch := resolver.next_batch(100):
        out += batch
    return out


@pytest.mark.parametrize("how", ["next_batch", "stream", "iter"])
@pytest.mark.parametrize("method", sorted(METHODS))
@pytest.mark.parametrize("backend", BACKENDS)
def test_a_drain_leaves_the_callers_setting(
    collector, backend, method, how, monkeypatch
):
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 100)
    assert len(drain(method, backend, how)) > 100
    assert gc.isenabled() is collector


class Failing(ProgressiveMethod):
    """Raises partway through its first chunk."""

    name = "failing"

    def _setup(self) -> None:
        pass

    def _emit(self):
        for i in range(10):
            yield Comparison(i, i + 1, 1.0)
        raise RuntimeError("emission failed")


def test_a_method_that_raises_mid_chunk_leaves_the_callers_setting(collector):
    with pytest.raises(RuntimeError, match="emission failed"):
        list(Failing(census().store))
    assert gc.isenabled() is collector


@pytest.mark.parametrize("collector", [True], indirect=True)
@pytest.mark.parametrize("backend", BACKENDS)
def test_threads_draining_their_own_sessions(collector, backend, monkeypatch):
    """Pauses overlap across threads (more threads than cores, a short
    switch interval); each stream is the single-thread one, and the
    collector ends enabled."""
    monkeypatch.setattr(comparisons, "CHUNK_SIZE", 50)
    pipeline = ERPipeline().method("PPS").backend(backend)
    expected = stream_digest(pipeline.fit(census()).stream())
    digests: list[str | None] = [None] * 4

    def work(slot):
        digests[slot] = stream_digest(pipeline.fit(census()).stream())

    threads = [threading.Thread(target=work, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert digests == [expected] * 4
    assert gc.isenabled()
