"""numpy stays optional: only the accelerator packages need it.

Two fresh interpreters import every module of :mod:`repro`, following
real imports, transitive ones included:

* one where numpy cannot be found - each module imports, or raises
  :func:`repro.engine.require_numpy`'s actionable error, and only a
  module under ``repro.engine`` / ``repro.parallel`` may raise it;
* one with numpy installed - importing every module outside those two
  packages leaves numpy out of ``sys.modules``.
"""

from __future__ import annotations

import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"
PYTHONPATH = os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")])

ACCELERATORS = ("repro.engine.", "repro.parallel.")

#: Hides numpy the way a host without it does: the path finder does not
#: find it, so ``import numpy`` and ``importlib.util.find_spec`` both miss.
HIDE_NUMPY = """
import importlib.machinery
import sys

class NoNumpy(importlib.machinery.PathFinder):
    @classmethod
    def find_spec(cls, name, path=None, target=None):
        if name == "numpy" or name.startswith("numpy."):
            return None
        return super().find_spec(name, path, target)

sys.meta_path[:] = [
    NoNumpy if finder is importlib.machinery.PathFinder else finder
    for finder in sys.meta_path
]
"""

IMPORT_ALL = """
import importlib
import json
import sys

refused = []
for name in {modules!r}:
    try:
        importlib.import_module(name)
    except ModuleNotFoundError as error:
        if "requires numpy" not in str(error):
            raise
        refused.append(name)
print(json.dumps({{"refused": refused, "numpy": "numpy" in sys.modules}}))
"""


def modules():
    """Every module of the package, ``__main__`` entry points aside."""
    return sorted(
        info.name
        for info in pkgutil.walk_packages(repro.__path__, "repro.")
        if not info.name.endswith(".__main__")
    )


def run(script):
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": PYTHONPATH},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


def test_without_numpy_only_the_accelerators_refuse_to_import():
    found = run(HIDE_NUMPY + IMPORT_ALL.format(modules=modules()))
    refused = found["refused"]
    assert not found["numpy"]
    assert "repro.engine.csr" in refused  # numpy really was hidden
    assert [name for name in refused if not name.startswith(ACCELERATORS)] == []


def test_the_reference_path_never_imports_numpy():
    pytest.importorskip("numpy")
    reference = [name for name in modules() if not name.startswith(ACCELERATORS)]
    found = run(IMPORT_ALL.format(modules=reference))
    assert found == {"refused": [], "numpy": False}
