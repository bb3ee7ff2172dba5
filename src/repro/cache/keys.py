"""Cache-key construction: canonical fingerprint + statistics + config.

The serving layer separates three ingredients of plan identity:

* **structure** — an isomorphism-*invariant* bucket digest (degree and
  hyperedge-arity multisets plus payload tokens).  Equal for every
  relabeling of a shape; collisions between different shapes are
  harmless because the bucket is only used for grouping/invalidation,
  never for serving.
* **statistics** — cardinalities and selectivities, folded into the
  annotated canonical form as node/edge colors.  Two queries share a
  key only when an isomorphism matches structure *and* statistics, so
  a cache hit is exact by construction.
* **configuration** — the :meth:`OptimizerConfig.cache_key` tuple
  (algorithm, mode, cost-model key) plus the resolved registration's
  fingerprint, so optimizers with different semantics never serve
  each other's plans even when they share one
  :class:`~repro.cache.plan_cache.PlanCache`.

The annotated canonical form also yields the node permutation used to
store/replay plan recipes in canonical space (see
:mod:`repro.cache.recipe`).

Thread-safety: everything here is a pure function of its arguments —
no module state, no graph mutation — so keys may be built concurrently
from any number of optimizer threads.

Pickle-safety: keys are nested tuples of ints, floats, and strings
(and :class:`CacheKeyInfo` a frozen dataclass of the same), so they
cross process boundaries and survive the persistence layer's
``repr``/``literal_eval`` round-trip exactly.  :data:`KEY_VERSION` is
the compatibility fuse: it is baked into every key *and* into the
on-disk document header, so entries built under different key or
replay semantics are structurally unable to be served (see
``docs/cache.md`` for the bump discipline).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Sequence

from ..core import bitset
from ..core.hypergraph import Hypergraph, payload_token

#: bump when the key layout changes incompatibly (old entries must
#: never be served by code with different replay semantics).
#: 2: recipes carry each join's cardinality and cost, multiplied in
#: the estimator's labeling-invariant (value) order
#: 3: recipes are enumerated on the canonical problem, so an entry's
#: tree no longer depends on which labeling created it
#: 4: the canonical digest hashes packed bytes instead of a repr'd
#: tuple; the same queries share a key, under a new digest
KEY_VERSION = 4


@dataclass(frozen=True)
class CacheKeyInfo:
    """Everything the cache stages need for one query.

    Attributes:
        key: the hashable LRU key (version, annotated canonical digest,
            config key tuple).
        permutation: query node index -> canonical rank.
        inverse: canonical rank -> query node index.
        canonical: False when canonicalization hit its budget and fell
            back to index order (repeats of the same layout still hit;
            relabelings will not).

    The structural bucket digest is deliberately *not* precomputed
    here: it is only needed when an entry is stored (a miss), and the
    hot serving path should not pay an extra per-lookup edge scan —
    the store stage calls :func:`structure_bucket` itself.
    """

    key: tuple
    permutation: tuple[int, ...]
    inverse: tuple[int, ...]
    canonical: bool


def structure_bucket(graph: Hypergraph) -> str:
    """Cheap isomorphism-invariant structural digest (no search)."""
    degrees = [0] * graph.n_nodes
    shapes = []
    for edge in graph.edges:
        for node in bitset.iter_nodes(edge.nodes):
            degrees[node] += 1
        shapes.append((
            tuple(sorted((
                bitset.count(edge.left), bitset.count(edge.right)
            ))),
            bitset.count(edge.flex),
            payload_token(edge.payload),
        ))
    payload = repr((graph.n_nodes, sorted(degrees), sorted(shapes)))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def build_cache_key(
    graph: Hypergraph,
    cardinalities: Sequence[float],
    config_key: tuple,
) -> CacheKeyInfo:
    """Assemble the full cache key for one hypergraph query.

    ``config_key`` is :meth:`OptimizerConfig.cache_key` (already
    including the cost-model key); statistics enter through the
    annotated canonical form, with base cardinalities as node colors
    and selectivities as edge colors.
    """
    form = graph.canonical_form(
        node_colors=[float(card) for card in cardinalities],
        edge_colors=[float(edge.selectivity) for edge in graph.edges],
    )
    return CacheKeyInfo(
        key=(KEY_VERSION, form.digest, config_key),
        permutation=form.permutation,
        inverse=form.inverse,
        canonical=form.canonical,
    )
