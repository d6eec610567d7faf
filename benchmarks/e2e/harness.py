"""Measurement helpers shared by the workloads, the traced run and the tests.

Nothing here imports :mod:`repro`: the helpers work on plain tuples,
lists and floats, so the tests can exercise them without a dataset.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from array import array
from contextlib import contextmanager
from typing import Any, Iterable, Iterator, NamedTuple, Sequence

#: Where every artifact of a run goes (result files, trace.json, service
#: snapshots, memmap scratch).  Inside the checkout and git-ignored: the
#: benchmark may not write anywhere else.
OUT_DIR = ".bench_e2e"

RECALL_TARGET = 0.9


def repo_root() -> str:
    here = os.path.dirname(os.path.abspath(__file__))
    return os.path.dirname(os.path.dirname(here))


def out_dir() -> str:
    path = os.path.join(repo_root(), OUT_DIR)
    os.makedirs(path, exist_ok=True)
    return path


# -- one subprocess per measurement --------------------------------------------

RESULT_MARKER = "RESULT: "


def run_worker(spec: dict[str, Any], keep_heap: bool = True) -> dict[str, Any]:
    """Run one measurement in a fresh interpreter; return its result.

    A fresh process per workload makes ``ru_maxrss`` that workload's own
    high-water mark, and is the only way to pin ``PYTHONHASHSEED``.  The
    BLAS pools are held to one thread: the box has two cores and the
    serving workload needs the second one for its load generator.

    ``keep_heap`` tells glibc to keep freed memory (no mmap for large
    blocks, no heap trimming).  On the sandbox this was built on, memory
    a process maps afresh costs 20-70 us per 4 KB page to touch (a probe
    took 5-10 s per GB), differently every time: under the default
    allocator a ``hetero-movies`` pass, which maps ~750 MB, measured
    3.1-6.4 s over ten runs of the same code (29.5% between quartiles,
    with the in-run median and the in-run best alike) and the driver
    refuses a benchmark whose spread exceeds its bound of at most 25%.
    With the heap kept, passes after the warm-up reuse resident pages.
    What it hides: the timings exclude the first-touch cost of memory,
    and ``peak_rss_mb`` includes what the heap could not reuse.  The
    traced run of ``hetero-movies`` therefore measures the same passes
    once more with ``keep_heap=False`` (``engine.alloc.*``).  The garbage
    collector keeps its defaults either way.
    """
    root = repo_root()
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        OMP_NUM_THREADS="1",
        OPENBLAS_NUM_THREADS="1",
        **(
            {"MALLOC_MMAP_MAX_": "0", "MALLOC_TRIM_THRESHOLD_": str(1 << 40)}
            if keep_heap
            else {}
        ),
        PYTHONPATH=os.pathsep.join(
            part
            for part in (os.path.join(root, "src"), root, env.get("PYTHONPATH"))
            if part
        ),
    )
    worker = os.path.join(root, "benchmarks", "e2e", "worker.py")
    proc = subprocess.Popen(
        [sys.executable, worker, json.dumps(spec)],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
        cwd=root,
    )
    assert proc.stdout is not None
    result = None
    try:
        for line in proc.stdout:
            if line.startswith(RESULT_MARKER):
                result = json.loads(line[len(RESULT_MARKER):])
            else:
                print(line, end="", flush=True)
    finally:
        proc.stdout.close()
        code = proc.wait()
    if code != 0 or result is None:
        raise RuntimeError(f"worker {spec} failed (exit {code})")
    return result


# -- statistics ----------------------------------------------------------------


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def percentile(samples: Sequence[float], fraction: float) -> float:
    """Linear-interpolated percentile of ``samples`` (need not be sorted)."""
    ordered = sorted(samples)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = fraction * (len(ordered) - 1)
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def quartiles(values: Sequence[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: Sequence[float]) -> float:
    """Inter-quartile distance as a share of the median (the driver's
    steadiness measure)."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


# -- streams: digest and distinct-pair recall ----------------------------------


def stream_digest(batches: Iterable[Sequence[tuple]]) -> str:
    """Order- and weight-sensitive digest of ``(i, j, weight)`` batches.

    Packs ids as int64 and weights as float64, so two streams share a
    digest only if they hold the same pairs in the same order with
    bit-identical weights - the parity contract of the backends.
    """
    digest = hashlib.blake2b(digest_size=16)
    for batch in batches:
        if not batch:
            continue
        left, right, weights = zip(*((c[0], c[1], c[2]) for c in batch))
        digest.update(array("q", left).tobytes())
        digest.update(array("q", right).tobytes())
        digest.update(array("d", weights).tobytes())
    return digest.hexdigest()


class Recall(NamedTuple):
    """Distinct-pair recall of one stream against a truth set."""

    recall: float
    #: comparisons emitted when recall first reached the target (1-based)
    cmp_to_target: int | None
    #: index of the pull (batch) in which that happened
    pull_of_target: int | None
    #: comparisons that hit a true pair, repeats included
    raw_hits: int


def distinct_pair_recall(
    batches: Iterable[Sequence[tuple[int, int]]],
    truth: "frozenset[tuple[int, int]] | set[tuple[int, int]]",
    target: float = RECALL_TARGET,
) -> Recall:
    """Recall over *distinct* matched pairs.

    PPS emits a pair once from each endpoint's neighbourhood, so a plain
    hit counter runs to about twice the truth size; only the first
    emission of a true pair counts here.  Pairs must be normalised
    ``(min, max)`` like the truth set's.
    """
    found: set[tuple[int, int]] = set()
    needed = target * len(truth)
    emitted = raw_hits = 0
    cmp_to_target = pull_of_target = None
    for pull, batch in enumerate(batches):
        for pair in batch:
            emitted += 1
            if pair in truth:
                raw_hits += 1
                if pair not in found:
                    found.add(pair)
                    if cmp_to_target is None and len(found) >= needed:
                        cmp_to_target, pull_of_target = emitted, pull
    recall = len(found) / len(truth) if truth else 0.0
    return Recall(recall, cmp_to_target, pull_of_target, raw_hits)


# -- spans ---------------------------------------------------------------------


class Tracer:
    """In-memory span recorder for the traced run.

    A span is ``{id, name, parent, workload, repeat, start, end}``;
    ``parent`` is the id of the span that was open when this one
    started (``None`` at the top).  Spans are kept in memory and written
    out once, when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self.workload = ""
        self.repeat = -1
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[dict[str, Any]]:
        record: dict[str, Any] = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "workload": self.workload,
            "repeat": self.repeat,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def self_seconds(self, name: str, workload: str, repeat: int) -> float:
        """Time spent in ``name`` spans minus what their children cover."""
        total = 0.0
        for span in self.spans:
            if (span["name"], span["workload"], span["repeat"]) != (
                name,
                workload,
                repeat,
            ):
                continue
            total += span["end"] - span["start"]
            total -= sum(
                child["end"] - child["start"]
                for child in self.spans
                if child["parent"] == span["id"]
            )
        return total

    def median_self_seconds(self, name: str, workload: str) -> float:
        """Median over the timed repeats (repeat >= 0; -1 is the warm-up),
        like every other timing the benchmark reports."""
        repeats = sorted(
            {
                span["repeat"]
                for span in self.spans
                if span["name"] == name
                and span["workload"] == workload
                and span["repeat"] >= 0
            }
        )
        if not repeats:
            raise KeyError(f"no timed span {name!r} on {workload!r}")
        return median([self.self_seconds(name, workload, r) for r in repeats])


# -- the process and the machine -----------------------------------------------


def proc_status_mb(pid: "int | str", field: str) -> float:
    """``VmHWM`` (peak RSS) or ``VmRSS`` of a process, in MB."""
    with open(f"/proc/{pid}/status") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no {field} in /proc/{pid}/status")


def tree_mb(path: str) -> float:
    """Total size of the files under ``path``, in MB."""
    return sum(
        os.path.getsize(os.path.join(folder, entry))
        for folder, _dirs, files in os.walk(path)
        for entry in files
    ) / float(1 << 20)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=repo_root(),
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def environment() -> dict[str, Any]:
    """The machine half of a result file's environment block."""
    try:
        import numpy

        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_commit": _git_commit(),
        "loadavg_start": list(os.getloadavg()),
    }
