"""Scaling benchmark: profiles x backend x storage on synthetic data.

Resolves seeded synthetic workloads (10k / 100k / 1M profiles, see
``repro.datasets.synthetic``) through :func:`repro.resolve` with PPS and
records wall clock plus peak RSS for every (backend, storage) cell.
Each cell runs in its own subprocess so ``ru_maxrss`` is the cell's own
high-water mark, not the table's; within one profile count every cell
must produce the same order-sensitive stream digest - the scaling table
doubles as a storage/backend parity check at scale.

The headline acceptance row: at 1M profiles the numpy backend with
``storage="memmap"`` stays under :data:`RAM_CAP_MB` of peak RSS while
the in-RAM path exceeds it (memory math in docs/scale.md).

Usage::

    PYTHONPATH=src python benchmarks/bench_scale.py            # full table
    PYTHONPATH=src python benchmarks/bench_scale.py --smoke    # 10k cells

The full run writes ``BENCH_scale.json`` (committed: the only
100k/1M capacity table); ``--smoke`` writes ``BENCH_scale_smoke.json``
so a CI smoke never clobbers the committed full table.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

#: Anonymous-memory budget (MB) for the 1M acceptance contrast,
#: enforced as a hard ``RLIMIT_DATA`` (heap + anonymous mmap - numpy's
#: in-RAM arrays - but *not* file-backed memmaps): the 1M memmap cell
#: must finish under it, the 1M in-RAM cell must die on it.  RSS cannot
#: draw this line - resident file pages count toward RSS until memory
#: pressure evicts them, which is exactly the pressure memmap arrays
#: survive and anonymous arrays cannot (docs/scale.md).  The CI scale
#: job applies the same limit (``ulimit -d``) to a 100k workload.
RAM_CAP_MB = 1200

#: PPS emission budget per cell: enough comparisons that the emission
#: phase is measured, small enough that initialization dominates (the
#: phase the storage seam exists for).
BUDGET = 100_000

SEED = 0
MARKER = "CELL-RESULT: "

#: (profiles, backend, storage) cells.  python gets the 10k row only
#: (the reference implementation is the per-cell timing floor, not a
#: scaling contender); 1M runs on the sequential numpy backend where
#: the ram-vs-memmap RSS contrast is cleanest.
FULL_CELLS = (
    {"profiles": 10_000, "backend": "python", "storage": "ram"},
    {"profiles": 10_000, "backend": "numpy", "storage": "ram"},
    {"profiles": 10_000, "backend": "numpy", "storage": "memmap"},
    {"profiles": 10_000, "backend": "numpy-parallel", "storage": "ram"},
    {"profiles": 10_000, "backend": "numpy-parallel", "storage": "memmap"},
    {"profiles": 100_000, "backend": "numpy", "storage": "ram"},
    {"profiles": 100_000, "backend": "numpy", "storage": "memmap"},
    {"profiles": 100_000, "backend": "numpy-parallel", "storage": "ram"},
    {"profiles": 100_000, "backend": "numpy-parallel", "storage": "memmap"},
    {"profiles": 1_000_000, "backend": "numpy", "storage": "ram"},
    {"profiles": 1_000_000, "backend": "numpy", "storage": "memmap"},
)

SMOKE_CELLS = tuple(c for c in FULL_CELLS if c["profiles"] == 10_000)

#: Fixed parallel-cell knobs, recorded in the payload: 2 real workers x
#: 4 shards keeps the cells comparable across machines instead of
#: scaling with whatever core count the bench host has.
PARALLEL_KNOBS = {"workers": 2, "shards": 4}


def emit(text: str) -> None:
    """Print one report block, flushed so progress shows during a run."""
    print(f"\n{text}\n", flush=True)


def write_bench_json(payload: dict, path: str) -> str:
    """Write the results table as indented JSON; returns the path."""
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def run_cell(spec: dict) -> dict:
    """One (profiles, backend, storage) measurement - subprocess body."""
    import hashlib
    import resource
    import time

    from repro import resolve
    from repro.datasets.synthetic import generate_synthetic

    if spec.get("cap_mb"):
        cap = int(spec["cap_mb"]) * (1 << 20)
        resource.setrlimit(resource.RLIMIT_DATA, (cap, cap))
    dataset = generate_synthetic(n_profiles=spec["profiles"], seed=SEED)
    kwargs: dict = {}
    if spec["backend"] == "numpy-parallel":
        kwargs.update(PARALLEL_KNOBS)
    if spec["storage"] == "memmap":
        kwargs["storage"] = "memmap"
    started = time.perf_counter()
    result = resolve(
        dataset,
        method="PPS",
        budget=BUDGET,
        backend=spec["backend"],
        **kwargs,
    )
    elapsed = time.perf_counter() - started
    digest = hashlib.blake2b(digest_size=16)
    for comparison in result.pairs:
        digest.update(b"%d,%d;" % comparison.pair)
    recall = result.recall
    result.resolver.close()
    return {
        **spec,
        **(PARALLEL_KNOBS if spec["backend"] == "numpy-parallel" else {}),
        "emitted": result.emitted,
        "recall": recall,
        "stream_digest": digest.hexdigest(),
        "total_seconds": elapsed,
        "max_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }


def run_cell_subprocess(spec: dict) -> dict:
    """Run one cell in a fresh interpreter and parse its result line."""
    src = os.path.join(
        os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (src, env.get("PYTHONPATH")) if part
    )
    process = subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--cell", json.dumps(spec)],
        capture_output=True,
        text=True,
        env=env,
    )
    if process.returncode != 0:
        raise RuntimeError(
            f"cell {spec} failed (exit {process.returncode}):\n"
            f"{process.stdout}\n{process.stderr}"
        )
    for line in process.stdout.splitlines():
        if line.startswith(MARKER):
            return json.loads(line[len(MARKER) :])
    raise RuntimeError(f"cell {spec} produced no result line:\n{process.stdout}")


def check_digests(runs: list[dict]) -> None:
    """Every cell at one profile count must emit the same stream."""
    by_profiles: dict[int, dict] = {}
    for run in runs:
        reference = by_profiles.setdefault(run["profiles"], run)
        assert (
            run["stream_digest"] == reference["stream_digest"]
            and run["emitted"] == reference["emitted"]
        ), (
            f"{run['backend']}/{run['storage']} diverged from "
            f"{reference['backend']}/{reference['storage']} "
            f"at {run['profiles']} profiles"
        )


def check_ram_cap(runs: list[dict]) -> tuple[list[str], dict | None]:
    """The 1M acceptance contrast (full table only).

    Reruns the 1M cells under a hard ``RLIMIT_DATA`` of
    :data:`RAM_CAP_MB`: the memmap cell must complete with the same
    digest, the in-RAM cell must die on the limit.  Returns report
    notes plus the ``cap_check`` payload block.
    """
    reference = next(
        (run for run in runs if run["profiles"] == 1_000_000), None
    )
    if reference is None:
        return [], None
    capped = run_cell_subprocess(
        {
            "profiles": 1_000_000,
            "backend": "numpy",
            "storage": "memmap",
            "cap_mb": RAM_CAP_MB,
        }
    )
    assert (
        capped["stream_digest"] == reference["stream_digest"]
        and capped["emitted"] == reference["emitted"]
    ), "capped memmap 1M run diverged from the uncapped stream"
    ram_died = False
    try:
        run_cell_subprocess(
            {
                "profiles": 1_000_000,
                "backend": "numpy",
                "storage": "ram",
                "cap_mb": RAM_CAP_MB,
            }
        )
    except RuntimeError:
        ram_died = True
    assert ram_died, (
        f"in-RAM 1M cell fit under {RAM_CAP_MB} MB of anonymous memory - "
        "the cap no longer separates the storage modes; retune RAM_CAP_MB"
    )
    notes = [
        f"cap check (RLIMIT_DATA {RAM_CAP_MB} MB): memmap completed in "
        f"{capped['total_seconds']:.1f}s, in-RAM path died on the limit",
    ]
    cap_check = {
        "cap_mb": RAM_CAP_MB,
        "memmap_under_cap": capped,
        "ram_exceeds_cap": True,
    }
    return notes, cap_check


def run(smoke: bool = False) -> dict:
    from repro.evaluation.report import format_table

    cells = SMOKE_CELLS if smoke else FULL_CELLS
    runs = []
    rows = []
    for spec in cells:
        result = run_cell_subprocess(spec)
        runs.append(result)
        rows.append(
            [
                f"{spec['profiles']:,}",
                spec["backend"],
                spec["storage"],
                result["emitted"],
                f"{result['recall']:.3f}",
                f"{result['total_seconds']:.1f}s",
                f"{result['max_rss_mb']:.0f} MB",
            ]
        )
        emit(
            f"[{len(runs)}/{len(cells)}] {spec['profiles']:,} "
            f"{spec['backend']}/{spec['storage']}: "
            f"{result['total_seconds']:.1f}s, "
            f"{result['max_rss_mb']:.0f} MB peak RSS"
        )
    check_digests(runs)
    notes, cap_check = check_ram_cap(runs)
    payload = {
        "schema": "bench-scale/1",
        "smoke": smoke,
        "seed": SEED,
        "budget": BUDGET,
        "ram_cap_mb": RAM_CAP_MB,
        "cap_check": cap_check,
        "runs": runs,
    }
    emit(
        format_table(
            [
                # fmt: off
                "profiles", "backend", "storage",
                "emitted", "recall", "total", "peak RSS",
                # fmt: on
            ],
            rows,
            title="Scaling: profiles x backend x storage (PPS, seeded synthetic)",
        )
    )
    for note in notes:
        emit(note)
    return payload


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--smoke", action="store_true", help="10k cells only (CI smoke)"
    )
    parser.add_argument(
        "--cell", metavar="JSON", help=argparse.SUPPRESS  # subprocess body
    )
    parser.add_argument(
        "--out",
        default=None,
        help="output path (default: BENCH_scale.json, or "
        "BENCH_scale_smoke.json with --smoke)",
    )
    args = parser.parse_args(argv)
    if args.cell:
        print(MARKER + json.dumps(run_cell(json.loads(args.cell))), flush=True)
        return 0
    payload = run(smoke=args.smoke)
    out = args.out or (
        "BENCH_scale_smoke.json" if args.smoke else "BENCH_scale.json"
    )
    emit(f"wrote {write_bench_json(payload, out)}")
    return 0


if __name__ == "__main__":  # pragma: no cover - script mode
    sys.exit(main(sys.argv[1:]))
