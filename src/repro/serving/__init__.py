"""The plan-serving daemon: a resident optimizer behind a socket.

``optimize_many(executor="process")`` keeps one worker pool per
:class:`~repro.optimizer.Optimizer`, serving that optimizer's caller.
This package shares one cache and one pool across clients and
processes:

* :class:`~repro.serving.server.PlanServer` — asyncio front end plus a
  **persistent** ``ProcessPoolExecutor`` of the batch backend's
  stateless workers, shared across requests, with in-flight
  coalescing of duplicate misses, admission control and graceful,
  autosaving shutdown;
* :class:`~repro.serving.client.PlanClient` — blocking client over the
  length-prefixed JSON protocol (:mod:`repro.serving.protocol`); v2
  requests carry an ``id`` and :meth:`~repro.serving.client.PlanClient.
  optimize_many` keeps a window of them in flight (pipelining), with
  per-client cache namespaces;
* :class:`~repro.serving.shard.ShardRouter` — fingerprint-sharded
  client across M daemons, with dead-shard fallback-to-compute;
* :class:`~repro.serving.runner.BackgroundServer` — in-process harness
  for tests, benches, and doc snippets;
* ``python -m repro.serving`` — the standalone daemon.

See ``docs/serving.md`` for the protocol and the coalescing design.
"""

from .client import DEFAULT_PIPELINE_DEPTH, PlanClient, ServerError
from .protocol import (
    MAX_FRAME_BYTES,
    FrameTooLargeError,
    ProtocolError,
    spec_to_wire,
    wire_to_spec,
)
from .runner import BackgroundServer
from .server import PROTOCOL_VERSION, PlanServer
from .shard import ShardRouter

__all__ = [
    "PlanClient",
    "ServerError",
    "DEFAULT_PIPELINE_DEPTH",
    "MAX_FRAME_BYTES",
    "FrameTooLargeError",
    "ProtocolError",
    "PROTOCOL_VERSION",
    "spec_to_wire",
    "wire_to_spec",
    "BackgroundServer",
    "PlanServer",
    "ShardRouter",
]
