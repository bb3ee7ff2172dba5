"""Start the plan-serving daemon with traced pipeline stages.

The traced counterpart of ``python -m repro.serving --cache-path PATH``:
the same public :class:`repro.serving.server.PlanServer` with every
other setting at its default, but built with
``OptimizerConfig(pipeline=traced stages)``.  ``PlanStore.load``,
``PlanStore.sync_from`` and ``HotTierPublisher.publish_from`` are
timed too.  The parent-side spans are written as JSON to
``--spans-out`` when the daemon shuts down.

Usage (from a checkout root, with ``src`` and ``perfbench`` on
``PYTHONPATH``)::

    python perfbench/launcher.py --cache-path plans.sqlite --spans-out spans.json
"""

from __future__ import annotations

import argparse
import asyncio
import contextlib
import json
import signal
import sys
from typing import Any, Optional, Sequence


def _trace_method(owner: Any, attribute: str, name: str, recorder: Any) -> None:
    setattr(owner, attribute, recorder.timed(name, getattr(owner, attribute)))


async def _serve(server: Any) -> None:
    await server.start()
    host, port = server.address
    print(f"plan server listening on {host}:{port}", flush=True)
    loop = asyncio.get_running_loop()

    def request_shutdown() -> None:
        asyncio.ensure_future(server.shutdown())

    for signame in ("SIGINT", "SIGTERM"):
        with contextlib.suppress(NotImplementedError, AttributeError):
            loop.add_signal_handler(getattr(signal, signame), request_shutdown)
    await server.serve_forever()
    print("plan server stopped", flush=True)


def main(argv: "Optional[Sequence[str]]" = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-path", required=True)
    parser.add_argument("--spans-out", required=True)
    args = parser.parse_args(argv)

    from harness.tracing import Recorder, traced_pipeline
    from repro.cache.store import PlanStore
    from repro.optimizer import OptimizerConfig
    from repro.serving.server import PlanServer
    from repro.serving.shared_tier import HotTierPublisher

    recorder = Recorder()
    _trace_method(PlanStore, "load", "store.load", recorder)
    _trace_method(PlanStore, "sync_from", "store.sync", recorder)
    _trace_method(HotTierPublisher, "publish_from", "tier.publish", recorder)
    config = OptimizerConfig(
        algorithm="auto",
        cache="on",
        cache_path=args.cache_path,
        pipeline=traced_pipeline(recorder),
    )
    try:
        asyncio.run(_serve(PlanServer(config)))
    finally:
        with open(args.spans_out, "w") as handle:
            json.dump(
                {"spans": recorder.spans, "work": recorder.worker_work},
                handle,
            )
    return 0


if __name__ == "__main__":
    sys.exit(main())
