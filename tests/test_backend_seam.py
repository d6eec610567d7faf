"""The backend seam: ``engine.Backend`` states it once, every backend keeps it.

``mypy --strict`` holds each override to the base signatures; these
checks pin the same seam at runtime, and run with or without numpy.
"""

from __future__ import annotations

import inspect
import re
from pathlib import Path

import pytest

import repro
from repro.engine import Backend, get_backend

SEAM = (
    "blocking_substrate",
    "profile_index",
    "blocking_graph",
    "pps_core",
    "pbs_core",
    "psn_core",
    "pruned_edges",
)


def _parameters(function) -> list[tuple[str, object]]:
    return [
        (parameter.name, parameter.kind)
        for parameter in inspect.signature(function).parameters.values()
    ]


def test_base_declares_exactly_the_seven_seam_methods():
    declared = {
        name
        for name, value in vars(Backend).items()
        if not name.startswith("_") and inspect.isfunction(value)
    }
    assert declared - {"require", "close"} == set(SEAM)


@pytest.mark.parametrize("name", ["python", "numpy", "numpy-parallel"])
def test_overrides_keep_the_base_signatures(name):
    backend = get_backend(name)
    assert isinstance(backend, Backend)
    for method in SEAM:
        assert _parameters(getattr(type(backend), method)) == _parameters(
            getattr(Backend, method)
        ), method


@pytest.mark.parametrize("factory", SEAM[1:])
def test_python_backend_builds_no_array_structure(factory):
    method = getattr(get_backend("python"), factory)
    arguments = [None] * len(inspect.signature(method).parameters)
    with pytest.raises(NotImplementedError, match="'python'"):
        method(*arguments)


def test_every_seam_method_is_called_in_src():
    root = Path(repro.__file__).parent
    source = "\n".join(path.read_text() for path in root.rglob("*.py"))
    for method in SEAM:
        assert re.search(rf"(?:backend|resolved)\.{method}\(", source), method
