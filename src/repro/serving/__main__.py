"""``python -m repro.serving`` — launch the plan-serving daemon.

Binds the asyncio front end, builds the persistent worker pool, and
serves until SIGINT/SIGTERM or a client ``shutdown`` op; either path
drains in-flight requests and autosaves the cache.
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import signal
import sys
from typing import Optional, Sequence

from ..optimizer import OptimizerConfig
from .server import (
    DEFAULT_MAX_IN_FLIGHT,
    DEFAULT_PIPELINE_WINDOW,
    DEFAULT_QUEUE_LIMIT,
    PlanServer,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serving",
        description="plan-serving daemon: resident optimizer worker pool "
        "behind a length-prefixed JSON socket protocol",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument(
        "--port", type=int, default=0,
        help="listen port (0 = let the OS pick; the bound port is printed)",
    )
    parser.add_argument(
        "--workers", type=int, default=1,
        help="worker pool size (default 1; match physical cores)",
    )
    parser.add_argument(
        "--max-in-flight", type=int, default=DEFAULT_MAX_IN_FLIGHT,
        help="optimize requests executing concurrently",
    )
    parser.add_argument(
        "--queue-limit", type=int, default=DEFAULT_QUEUE_LIMIT,
        help="optimize requests allowed to wait; beyond it: rejection",
    )
    parser.add_argument(
        "--pipeline-window", type=int, default=DEFAULT_PIPELINE_WINDOW,
        help="per-connection in-flight cap for pipelined (id-carrying) "
        "requests",
    )
    parser.add_argument(
        "--idle-timeout", type=float, default=None,
        help="close connections idle for this many seconds "
        "(default: never)",
    )
    parser.add_argument(
        "--cache-path", default=None,
        help="plan-store file (.sqlite/.sqlite3/.db): loaded at start, "
        "autosaved at shutdown",
    )
    parser.add_argument(
        "--cache-size", type=int, default=None,
        help="LRU capacity of the shared plan cache",
    )
    parser.add_argument(
        "--algorithm", default="auto",
        help='base algorithm for every request (default "auto")',
    )
    parser.add_argument(
        "--debug-ops", action="store_true",
        help="enable debug-sleep/debug-kill-worker (tests only)",
    )
    return parser


async def _serve(server: PlanServer) -> None:
    await server.start()
    host, port = server.address
    print(f"plan server listening on {host}:{port}", flush=True)
    loop = asyncio.get_running_loop()

    def _request_shutdown() -> None:
        asyncio.ensure_future(server.shutdown())

    for signame in ("SIGINT", "SIGTERM"):
        with contextlib.suppress(NotImplementedError, AttributeError):
            loop.add_signal_handler(
                getattr(signal, signame), _request_shutdown
            )
    await server.serve_forever()
    print("plan server stopped", flush=True)


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    args = build_parser().parse_args(argv)
    config_kwargs: dict = {
        "algorithm": args.algorithm,
        "cache": "on",
        "cache_path": args.cache_path,
    }
    if args.cache_size is not None:
        config_kwargs["cache_size"] = args.cache_size
    server = PlanServer(
        OptimizerConfig(**config_kwargs),
        host=args.host,
        port=args.port,
        workers=args.workers,
        max_in_flight=args.max_in_flight,
        queue_limit=args.queue_limit,
        pipeline_window=args.pipeline_window,
        idle_timeout=args.idle_timeout,
        debug_ops=args.debug_ops,
    )
    asyncio.run(_serve(server))
    return 0


if __name__ == "__main__":
    sys.exit(main())
