"""There is one path: ``numpy`` is the one-range case of the sharded one.

Two proofs.  *Layering*: no module under ``repro.engine`` imports
``repro.parallel`` - not at import time, not lazily inside a function -
and the engine resolves end to end (RAM and memmap) with the package
blocked.  *One kernel per pass*: the ``numpy`` RAM backend calls every
range kernel with exactly one range, the whole axis, while ``shards=4``
calls the very same kernels, in the same sequence, with four ranges
that partition it - and both emit the same stream.  (Ranking scored
pairs is not such a pass: it is one stable sort in the caller on every
backend.)  The one exception is PBS's block axis, which the inline
fan-out cuts by budget because those ranges *are* the progressive
schedule: the last section counts that a PBS pull weights a prefix of
the blocks and builds no graph.
"""

from __future__ import annotations

import ast
import itertools
import os
import pathlib
import subprocess
import sys
import textwrap
import tracemalloc

import pytest

np = pytest.importorskip("numpy")

import repro.engine  # noqa: E402
from repro.blocking.substrate import SubstrateSpec  # noqa: E402
from repro.blocking.workflow import token_blocking_workflow  # noqa: E402
from repro.datasets.registry import load_dataset  # noqa: E402
from repro.engine import NumpyBackend  # noqa: E402
from repro.engine.equality import ArrayPBSCore  # noqa: E402
from repro.engine.fanout import Fanout  # noqa: E402
from repro.engine.matching import CascadeBatchMatcher  # noqa: E402
from repro.matching.cascade import MatcherCascade  # noqa: E402
from repro.metablocking.pruning import prune  # noqa: E402
from repro.parallel.backend import ParallelBackend  # noqa: E402
from repro.progressive import PBS, PPS  # noqa: E402
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
    """A fan-out that notes each ``run`` before delegating it, and each
    shard when its kernel actually executes."""

    def __init__(self, inner):
        self.inner = inner
        self.calls: list[tuple[str, list]] = []
        self.executed: list[tuple[str, tuple]] = []

    def ranges(self, n, masses=None, budget=None):
        return self.inner.ranges(n, masses, budget)

    def run(self, kernel, payload, shards):
        self.calls.append((kernel.__name__, list(shards)))

        def noting(payload, shard):
            self.executed.append((kernel.__name__, shard))
            return kernel(payload, shard)

        return self.inner.run(noting, payload, shards)

    def merge_counts(self, parts):
        return self.inner.merge_counts(parts)


def recorded(backend):
    recorder = Recording(backend.fanout())
    backend.fanout = lambda: recorder
    return recorder


def extent(shard):
    """``(lo, hi)`` of a range shard, or ``(0, len)`` of a shard that
    carries its own slices (cascade pairs)."""
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
    "PBS": {"tokenize_range", "new_block_pairs"},
    "ONLINE": {"tokenize_range", "graph_rows"},
    "GS-PSN": {"tokenize_range", "window_counts"},
    "LS-PSN": {"tokenize_range", "window_counts"},
    "WNP": {"graph_rows", "node_weight_sums"},
    "CNP": {"graph_rows", "node_topk"},
    "cascade": {"tokenize_range", "graph_rows", "pps_schedule", "pair_overlap"},
}


#: Kernels whose axis the inline fan-out cuts by budget: the ranges of
#: PBS's block axis are the progressive schedule, not a memory bound.
BUDGET_CUT = {"new_block_pairs"}


def tiles(shards, hi):
    """Whether range shards cover ``[0, hi)`` contiguously, in order."""
    bounds = [extent(shard) for shard in shards]
    return (
        bounds[0][0] == 0
        and bounds[-1][1] == hi
        and all(a[1] == b[0] for a, b in zip(bounds, bounds[1:]))
    )


@pytest.mark.parametrize("case", sorted(CASES))
def test_numpy_is_the_one_range_case(
    case, dirty_dataset, clean_clean_store, monkeypatch
):
    # Small enough that the fixtures' block axes span several ranges.
    monkeypatch.setattr(ArrayPBSCore, "RANGE_BUDGET", 100)
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
            assert len(four) == 4, f"shards=4 cut {name} into {len(four)} ranges"
            if name in BUDGET_CUT:
                assert len(one) > 1, f"numpy ran {name} as one range"
                hi = extent(one[-1])[1]
                assert tiles(one, hi) and tiles(four, hi)
                continue
            assert len(one) == 1, f"numpy cut {name} into {len(one)} ranges"
            lo, hi = extent(one[0])
            assert lo == 0
            if isinstance(four[0][0], np.ndarray):
                assert sum(extent(shard)[1] for shard in four) == hi
            else:
                assert tiles(four, hi)


# -- PBS weights a block when it is scheduled ---------------------------------


#: Blocking-graph edges of the fixture below (``engine.weights.edges`` of
#: the ``hetero-movies`` workload): enough that "O(range), not O(E)" is
#: a statement a test can tell apart.
MOVIES_EDGES = 3_461_512


@pytest.fixture(scope="module")
def movies_store():
    return load_dataset("movies", scale=0.2).store


@pytest.mark.parametrize("weighting", ["ARCS", "CBS", "ECBS", "JS", "EJS"])
def test_pbs_pull_weights_a_prefix_and_builds_no_graph(
    movies_store, weighting, monkeypatch
):
    from repro.engine import weights

    row_builds = []

    def graph_rows(payload, shard):  # counts every build, whoever runs it
        row_builds.append(shard)
        return weights_graph_rows(payload, shard)

    weights_graph_rows = weights.graph_rows
    monkeypatch.setattr(weights, "graph_rows", graph_rows)
    backend = NumpyBackend()
    fanout = recorded(backend)
    method = PBS(movies_store, weighting=weighting, backend=backend)
    assert len(list(itertools.islice(iter(method), 1000))) == 1000
    block_count = method.profile_index.block_count()
    ran = [shard for name, shard in fanout.executed if name == "new_block_pairs"]
    # The kernel ran on the first ranges of the schedule and stopped.
    assert tiles(ran, ran[-1][1]) and ran[-1][1] < block_count
    # EJS's degrees are whole-graph quantities: one pass over the rows,
    # through this fan-out - not a second, throwaway graph's.  Every
    # other scheme builds no row at all.
    through_fanout = [shard for name, shard in fanout.executed if name == "graph_rows"]
    assert row_builds == through_fanout
    assert row_builds == ([(0, len(movies_store))] if weighting == "EJS" else [])
    if row_builds:
        assert len(method.scheme.neighbors) // 2 == MOVIES_EDGES


def test_pbs_pull_memory_is_bounded_by_the_range(movies_store):
    backend = NumpyBackend()
    substrate = backend.blocking_substrate(movies_store, SubstrateSpec())
    index = backend.profile_index(substrate)
    assert index.block_cardinalities.sum() > 100 * ArrayPBSCore.RANGE_BUDGET
    tracemalloc.start()
    try:
        method = PBS(movies_store, backend=backend, substrate=substrate)
        method.initialize()
        held, _ = tracemalloc.get_traced_memory()  # the O(postings) probe arrays
        tracemalloc.reset_peak()
        assert len(list(itertools.islice(iter(method), 1000))) == 1000
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # One range is resident: its pairs, ~9 probes each, and its ordered
    # comparisons come to under half a KB per budgeted comparison...
    assert peak - held < 512 * ArrayPBSCore.RANGE_BUDGET
    # ...and all of PBS to a fraction of a quarter of the rows alone.
    assert peak < 24 * MOVIES_EDGES // 4


def test_memmap_pbs_spills_no_pair_arrays(movies_store, tmp_path):
    def scratch_bytes():
        return sum(
            os.path.getsize(os.path.join(folder, name))
            for folder, _, names in os.walk(tmp_path)
            for name in names
        )

    backend = NumpyBackend(storage="memmap", storage_dir=str(tmp_path))
    try:
        substrate = backend.blocking_substrate(movies_store, SubstrateSpec())
        index = backend.profile_index(substrate)
        before = scratch_bytes()
        method = PBS(movies_store, backend=backend, substrate=substrate)
        assert len(list(itertools.islice(iter(method), 1000))) == 1000
        added = scratch_bytes() - before
    finally:
        backend.close()
    # All PBS leaves on disk is what the pair probes read, O(postings):
    # the sorted incidence keys and their filter table.
    payload = method.scheme.payload
    assert 0 < added <= payload["pb_keys"].nbytes + payload["pb_filter"].nbytes + 1024
    assert added < 8 * int(index.block_cardinalities.sum()) // 4
