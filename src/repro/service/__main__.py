"""``python -m repro.service``: serve resolution sessions over HTTP.

Examples
--------
Serve on a fixed port with a snapshot directory::

    python -m repro.service --port 8321 --snapshot-dir /tmp/er-snapshots

Serve a custom pipeline spec (the ``to_dict`` JSON of an
:class:`~repro.pipeline.ERPipeline`, e.g. to pick the numpy backend or
set budgets)::

    python -m repro.service --spec pipeline.json

The process prints ``serving on http://HOST:PORT`` once the socket is
bound (the line CI's smoke job waits for) and shuts down cleanly on
SIGINT/SIGTERM: the listener closes, in-flight requests finish, every
session is closed.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import ctypes
import json
import signal
import sys
from typing import Sequence

from repro.pipeline.builder import ERPipeline
from repro.service.http import ServiceServer
from repro.service.session import SessionManager


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description="Serve progressive entity-resolution sessions over HTTP.",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0, help="0 picks a free port (default)"
    )
    parser.add_argument(
        "--spec",
        default=None,
        help="path to a pipeline spec JSON (ERPipeline.to_dict output)",
    )
    parser.add_argument(
        "--snapshot-dir",
        default=None,
        help="default directory for session snapshots",
    )
    return parser


def build_pipeline(
    spec_path: str | None, snapshot_dir: str | None
) -> ERPipeline:
    if spec_path is not None:
        with open(spec_path) as handle:
            pipeline = ERPipeline.from_dict(json.load(handle))
    else:
        pipeline = ERPipeline()
    if pipeline.config.service is None:
        pipeline.serve(snapshot_dir=snapshot_dir)
    elif snapshot_dir is not None:
        pipeline.config.service.snapshot_dir = snapshot_dir
    return pipeline


async def serve(args: argparse.Namespace) -> None:
    manager = SessionManager(build_pipeline(args.spec, args.snapshot_dir))
    server = ServiceServer(manager, host=args.host, port=args.port)
    await server.start()
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGINT, signal.SIGTERM):
        with contextlib.suppress(NotImplementedError):  # pragma: no cover
            loop.add_signal_handler(signum, stop.set)
    print(f"serving on http://{args.host}:{server.port}", flush=True)
    try:
        await stop.wait()
    finally:
        await server.stop()
        manager.close()
        print("service stopped", flush=True)


def share_one_malloc_arena() -> None:
    """Keep this process on one glibc malloc arena (a no-op elsewhere).
    The pool threads run pure Python under the GIL and never allocate at
    once; an arena each only splits the heap by which thread ran which
    request, and peak RSS differed run to run (docs/service.md, Memory)."""
    if sys.platform == "linux":
        with contextlib.suppress(OSError, AttributeError):
            ctypes.CDLL(None).mallopt(-8, 1)  # M_ARENA_MAX


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    share_one_malloc_arena()
    try:
        asyncio.run(serve(args))
    except KeyboardInterrupt:  # pragma: no cover - signal-handler fallback
        pass
    return 0


if __name__ == "__main__":
    sys.exit(main())
