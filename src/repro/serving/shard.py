"""Structure sharding: one client, M daemons, partitioned caches.

Running several plan daemons behind naive round-robin *duplicates*
cache populations — every daemon eventually holds every hot structure,
so M daemons buy M× the memory for roughly 1× the distinct plans.
:class:`ShardRouter` partitions instead: each query is routed by the
:func:`~repro.cache.keys.structure_bucket` of its hypergraph — the
digest every daemon's cache records per entry and reports in
``stats.structures``.  The bucket is a multiset invariant (sorted
degrees and sorted edge shapes), so every relabeling of a query gets
the same value by construction, with no search and no budget; it costs
microseconds.  Every structure therefore has exactly one home shard
and the union of the shard caches is the effective cache.  Routing by
structure (not by full cache key, which includes the statistics) is
deliberate: one shape with different statistics stays on one shard.
Two non-isomorphic shapes that share a bucket just share a shard.

Placement is **rendezvous (highest-random-weight) hashing** over the
endpoint labels: for each query, every endpoint gets a score
``sha256(bucket | label)`` and the highest score wins.  Unlike
``hash(bucket) % M``, adding or removing one endpoint only moves the keys
that scored highest on it (~1/M of the space), and scoring is over
*all* configured endpoints — a dead shard does not reshuffle the
others' populations.

Failure model: a shard that cannot be reached (connect failure,
transport error mid-request) is marked dead and its queries are
**computed locally** by a lazily-built in-process
:class:`~repro.optimizer.Optimizer` — correct plans at reduced
throughput, never an exception storm and never cross-shard pollution.
Application-level errors (``ServerError``: bad request, overloaded,
...) propagate — the shard is alive, the request was just rejected.

Not thread-safe: one :class:`ShardRouter` per thread, like the
:class:`~repro.serving.client.PlanClient` it multiplexes.
"""

from __future__ import annotations

import hashlib
from typing import Any, Optional

from ..cache.keys import structure_bucket
from .client import DEFAULT_PIPELINE_DEPTH, PlanClient, ServerError
from .protocol import ProtocolError, result_to_wire, wire_to_spec

__all__ = ["ShardRouter", "ServerError"]


def _score(bucket: str, label: str) -> int:
    """Rendezvous weight of ``label`` for ``bucket`` (sha256 —
    the stable, sanctioned digest; builtin ``hash()`` is banned by the
    ``no-builtin-hash`` gate and randomized per process anyway)."""
    digest = hashlib.sha256(
        f"{bucket}|{label}".encode("utf-8")
    ).digest()
    return int.from_bytes(digest[:16], "big")


class ShardRouter:
    """Route queries across ``endpoints`` by structure bucket.

    Args:
        endpoints: ``(host, port)`` pairs of the plan daemons.
        namespace: forwarded to every :class:`PlanClient`.
        timeout: per-connection socket timeout.
        fallback_config: :class:`~repro.optimizer.OptimizerConfig` for
            the local fallback optimizer (default: a cache-on default
            config), built lazily on the first dead-shard query.
    """

    def __init__(
        self,
        endpoints: "list[tuple[str, int]]",
        namespace: Optional[str] = None,
        timeout: Optional[float] = 30.0,
        fallback_config: Any = None,
    ) -> None:
        if not endpoints:
            raise ValueError("at least one endpoint is required")
        self.endpoints = [(host, int(port)) for host, port in endpoints]
        self.labels = [f"{host}:{port}" for host, port in self.endpoints]
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("endpoints must be distinct")
        self.namespace = namespace
        self.timeout = timeout
        self._fallback_config = fallback_config
        self._clients: "dict[int, PlanClient]" = {}
        self._dead: "set[int]" = set()
        self._fallback: Any = None
        self.routed = [0] * len(self.endpoints)
        self.fallbacks = 0
        self.shard_errors = 0

    # -- routing ----------------------------------------------------------

    def shard_for(self, query: Any) -> int:
        """Index of the endpoint this query lives on (dead or alive)."""
        spec = wire_to_spec(query) if isinstance(query, dict) else query
        graph, _cards = spec.to_hypergraph()
        bucket = structure_bucket(graph)
        return max(
            range(len(self.labels)),
            key=lambda index: _score(bucket, self.labels[index]),
        )

    # -- optimize ---------------------------------------------------------

    def optimize(self, query: Any) -> "dict[str, Any]":
        """Optimize one query on its home shard (or compute locally).

        The response is the server's summary; locally-computed answers
        carry ``via: "fallback"`` so callers can see degraded mode.
        """
        index = self.shard_for(query)
        return self._optimize_on(index, query)

    def optimize_many(
        self,
        queries: "list[Any]",
        depth: int = DEFAULT_PIPELINE_DEPTH,
    ) -> "list[dict[str, Any]]":
        """Batch optimize: group by shard, pipeline per shard.

        Each live shard gets its group through the pipelined
        :meth:`PlanClient.optimize_many` (``depth`` in flight); dead
        shards compute locally.  Results come back in submission
        order.
        """
        groups: "dict[int, list[int]]" = {}
        for position, query in enumerate(queries):
            groups.setdefault(self.shard_for(query), []).append(position)
        results: "list[Optional[dict[str, Any]]]" = [None] * len(queries)
        for index, positions in groups.items():
            group = [queries[position] for position in positions]
            answers = self._optimize_group(index, group, depth)
            for position, answer in zip(positions, answers):
                results[position] = answer
        return results  # type: ignore[return-value]

    def _optimize_group(
        self, index: int, group: "list[Any]", depth: int
    ) -> "list[dict[str, Any]]":
        if index not in self._dead:
            client = self._client(index)
            if client is not None:
                try:
                    answers = client.optimize_many(group, depth=depth)
                    self.routed[index] += len(group)
                    return answers
                except (ConnectionError, OSError, ProtocolError):
                    self._mark_dead(index)
        return [self._compute_locally(query) for query in group]

    def _optimize_on(self, index: int, query: Any) -> "dict[str, Any]":
        if index not in self._dead:
            client = self._client(index)
            if client is not None:
                try:
                    answer = client.optimize(query)
                    self.routed[index] += 1
                    return answer
                except (ConnectionError, OSError, ProtocolError):
                    # transport died mid-request: the shard is gone,
                    # not the request — compute it locally
                    self._mark_dead(index)
        return self._compute_locally(query)

    def _client(self, index: int) -> Optional[PlanClient]:
        client = self._clients.get(index)
        if client is not None:
            return client
        try:
            client = PlanClient(
                self.endpoints[index],
                namespace=self.namespace,
                timeout=self.timeout,
            )
        except (ConnectionError, OSError):
            self._mark_dead(index)
            return None
        self._clients[index] = client
        return client

    def _mark_dead(self, index: int) -> None:
        self.shard_errors += 1
        self._dead.add(index)
        client = self._clients.pop(index, None)
        if client is not None:
            client.close()

    def _compute_locally(self, query: Any) -> "dict[str, Any]":
        """Dead-shard degraded mode: the same answer, computed here."""
        from ..optimizer import Optimizer, OptimizerConfig  # local: cycle

        if self._fallback is None:
            config = self._fallback_config
            if config is None:
                config = OptimizerConfig(cache="on")
            self._fallback = Optimizer(config)
        spec = wire_to_spec(query) if isinstance(query, dict) else query
        result = self._fallback.optimize(spec)
        self.fallbacks += 1
        return result_to_wire(result, via="fallback")

    # -- introspection / lifecycle ----------------------------------------

    @property
    def dead_shards(self) -> "list[int]":
        return sorted(self._dead)

    def stats(self) -> "list[Optional[dict[str, Any]]]":
        """Per-shard ``stats`` op answers (``None`` for dead shards)."""
        answers: "list[Optional[dict[str, Any]]]" = []
        for index in range(len(self.endpoints)):
            if index in self._dead:
                answers.append(None)
                continue
            client = self._client(index)
            if client is None:
                answers.append(None)
                continue
            try:
                answers.append(client.stats())
            except (ConnectionError, OSError, ProtocolError):
                self._mark_dead(index)
                answers.append(None)
        return answers

    def counters(self) -> "dict[str, Any]":
        return {
            "endpoints": list(self.labels),
            "routed": list(self.routed),
            "dead": self.dead_shards,
            "fallbacks": self.fallbacks,
            "shard_errors": self.shard_errors,
        }

    def close(self) -> None:
        for client in self._clients.values():
            client.close()
        self._clients.clear()

    def __enter__(self) -> "ShardRouter":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()
