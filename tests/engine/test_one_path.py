"""There is one path: ``numpy`` is the one-range case of the sharded one.

Two proofs.  *Layering*: no module under ``repro.engine`` imports
``repro.parallel`` - not at import time, not lazily inside a function -
and the engine resolves end to end (RAM and memmap) with the package
blocked.  *One kernel per pass*: the ``numpy`` RAM backend calls every
range kernel with exactly one range, the whole axis, while ``shards=4``
calls the very same kernels, in the same sequence, with four ranges
that partition it - and both emit the same stream.
"""

from __future__ import annotations

import ast
import itertools
import pathlib
import subprocess
import sys
import textwrap

import pytest

np = pytest.importorskip("numpy")

import repro.engine  # noqa: E402
from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.engine import NumpyBackend  # noqa: E402
from repro.engine.fanout import Fanout  # noqa: E402
from repro.engine.matching import CascadeBatchMatcher  # noqa: E402
from repro.matching.cascade import MatcherCascade  # noqa: E402
from repro.metablocking.pruning import prune  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402
from repro.progressive import PPS  # noqa: E402
from repro.registry import progressive_methods  # noqa: E402

ENGINE_DIR = pathlib.Path(repro.engine.__file__).parent
ENGINE_MODULES = sorted(path.stem for path in ENGINE_DIR.glob("*.py"))


def runtime_imports(tree: ast.Module) -> list[str]:
    """Every module imported anywhere in ``tree``, function-local
    imports included, ``if TYPE_CHECKING:`` blocks excluded."""
    typing_only: set[ast.AST] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.If) and "TYPE_CHECKING" in ast.unparse(node.test):
            typing_only.update(ast.walk(node))
    found = []
    for node in ast.walk(tree):
        if node in typing_only:
            continue
        if isinstance(node, ast.Import):
            found.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            found.append(node.module or "")
    return found


@pytest.mark.parametrize("module", ENGINE_MODULES)
def test_engine_module_never_imports_parallel(module):
    tree = ast.parse((ENGINE_DIR / f"{module}.py").read_text())
    offenders = [
        name for name in runtime_imports(tree) if name.startswith("repro.parallel")
    ]
    assert not offenders, f"repro.engine.{module} imports {offenders}"


def test_engine_runs_with_parallel_blocked():
    """Import every engine module and resolve on RAM and memmap storage
    in an interpreter where ``import repro.parallel`` raises."""
    script = textwrap.dedent(
        """
        import importlib, sys
        sys.modules["repro.parallel"] = None  # any import of it now raises
        from repro.datasets.registry import load_dataset
        from repro.engine import NumpyBackend
        from repro.progressive import PBS, PPS
        for name in {modules!r}:
            importlib.import_module(
                "repro.engine" if name == "__init__" else "repro.engine." + name
            )
        store = load_dataset("census", scale=0.05).store
        for storage in ("ram", "memmap"):
            backend = NumpyBackend(storage=storage)
            for method in (PPS, PBS):
                assert sum(1 for _ in method(store, backend=backend)) > 0
            backend.close()
        assert not any(name.startswith("repro.parallel.") for name in sys.modules)
        print("ok")
        """
    ).format(modules=ENGINE_MODULES)
    src = str(ENGINE_DIR.parents[1])
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={"PYTHONPATH": src, "PATH": ""},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "ok"


class Recording(Fanout):
    """A fan-out that notes each ``run`` before delegating it."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, list]] = []

    def ranges(self, n, masses=None, budget=None):
        return self.inner.ranges(n, masses, budget)

    def run(self, kernel, payload, shards):
        self.calls.append((kernel.__name__, list(shards)))
        return self.inner.run(kernel, payload, shards)

    def merge_ranked(self, parts):
        return self.inner.merge_ranked(parts)

    def merge_counts(self, parts):
        return self.inner.merge_counts(parts)


def recorded(backend):
    recorder = Recording(backend.fanout())
    backend.fanout = lambda: recorder
    return recorder


def extent(shard):
    """``(lo, hi)`` of a range shard, or ``(0, len)`` of a shard that
    carries its own slices (ranking, cascade pairs)."""
    if isinstance(shard[0], np.ndarray):
        return 0, len(shard[0])
    return int(shard[0]), int(shard[1])


def method_stream(name, store, backend, **kwargs):
    method = progressive_methods.build(name, store, backend=backend, **kwargs)
    return [(c.i, c.j, c.weight) for c in itertools.islice(iter(method), 20_000)]


def pruned_stream(algorithm):
    def run(store, backend):
        blocks = token_blocking_workflow(store)
        return [
            (c.i, c.j, c.weight)
            for c in prune(blocks, algorithm, "ECBS", backend=backend)
        ]

    return run


def decided_stream(store, backend):
    """The cascade's batched tiers over the head of the PPS stream."""
    substrate = backend.blocking_substrate(store, SubstrateSpec())
    method = PPS(store, backend=backend, substrate=substrate)
    comparisons = list(itertools.islice(iter(method), 600))
    batcher = CascadeBatchMatcher(substrate, MatcherCascade(), store)
    assert batcher.eligible
    return batcher.decide_batch(comparisons)


CASES = {
    "PPS": lambda store, backend: method_stream("PPS", store, backend),
    "PBS": lambda store, backend: method_stream("PBS", store, backend),
    "ONLINE": lambda store, backend: method_stream("ONLINE", store, backend),
    "GS-PSN": lambda store, backend: method_stream(
        "GS-PSN", store, backend, max_window=6
    ),
    "LS-PSN": lambda store, backend: method_stream("LS-PSN", store, backend)[:3000],
    "WNP": pruned_stream("WNP"),
    "CNP": pruned_stream("CNP"),
    "cascade": decided_stream,
}

EXPECTED_KERNELS = {
    "PPS": {"tokenize_range", "graph_rows", "pps_schedule"},
    "PBS": {"tokenize_range", "graph_rows", "block_pairs"},
    "ONLINE": {"tokenize_range", "graph_rows", "rank_slice"},
    "GS-PSN": {"tokenize_range", "window_counts", "rank_slice"},
    "LS-PSN": {"tokenize_range", "window_counts", "rank_slice"},
    "WNP": {"graph_rows", "node_weight_sums", "rank_slice"},
    "CNP": {"graph_rows", "node_topk", "rank_slice"},
    "cascade": {"tokenize_range", "graph_rows", "pps_schedule", "pair_overlap"},
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_is_the_one_range_case(case, dirty_dataset, clean_clean_store):
    for store in (dirty_dataset.store, clean_clean_store):
        whole_backend = NumpyBackend()
        whole = recorded(whole_backend)
        sharded_backend = ParallelBackend(workers=0, shards=4)
        sharded = recorded(sharded_backend)
        try:
            assert CASES[case](store, whole_backend) == CASES[case](
                store, sharded_backend
            )
        finally:
            sharded_backend.close()
        assert {name for name, _ in whole.calls} == EXPECTED_KERNELS[case]
        # Same kernels, same sequence - only the ranges differ.
        assert [name for name, _ in whole.calls] == [
            name for name, _ in sharded.calls
        ]
        for (name, one), (_, four) in zip(whole.calls, sharded.calls):
            assert len(one) == 1, f"numpy cut {name} into {len(one)} ranges"
            assert len(four) == 4, f"shards=4 cut {name} into {len(four)} ranges"
            lo, hi = extent(one[0])
            assert lo == 0
            if isinstance(four[0][0], np.ndarray):
                assert sum(extent(shard)[1] for shard in four) == hi
            else:
                bounds = [extent(shard) for shard in four]
                assert bounds[0][0] == 0 and bounds[-1][1] == hi
                assert all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
