"""Plan-cache serving layer.

Turns the optimizer from "re-plan every call" into a serving system
for repeated workloads: queries are canonically fingerprinted
(:mod:`repro.cache.keys`), optimal join orders are stored as compact
canonical-space recipes (:mod:`repro.cache.recipe`), and a size-bounded
epoch-aware LRU (:mod:`repro.cache.plan_cache`) serves isomorphic
repeats by replaying the recipe through the requesting query's own
plan builder.

Persistence: the cache autosaves to the embedded SQLite store
(:mod:`repro.cache.store`) — WAL-mode, incremental per-mutation
upserts, trimmed to the newest ``capacity`` rows, safe multi-process
access — so a restarted server starts warm (``OptimizerConfig(cache_path=
"plans.sqlite")``).  The versioned JSON document
(:mod:`repro.cache.persist`) is the export/import interchange format.

The :class:`~repro.optimizer.Optimizer` pipeline wires these together;
this package has no dependency on the facade and can be reused by
other serving layers (e.g. a future cross-process shared store).
"""

from .keys import KEY_VERSION, CacheKeyInfo, build_cache_key, structure_bucket
from .persist import (
    CachePersistenceWarning,
    dump_document,
    load,
    restore_document,
    save,
    save_document,
)
from .plan_cache import DEFAULT_CAPACITY, CacheDelta, CacheEntry, PlanCache
from .recipe import PlanRecipe, canonical_problem, plan_recipe, replay_recipe
from .store import PlanStore, is_store_path

__all__ = [
    "KEY_VERSION",
    "CacheKeyInfo",
    "build_cache_key",
    "structure_bucket",
    "CachePersistenceWarning",
    "dump_document",
    "load",
    "restore_document",
    "save",
    "save_document",
    "DEFAULT_CAPACITY",
    "CacheDelta",
    "CacheEntry",
    "PlanCache",
    "PlanStore",
    "is_store_path",
    "PlanRecipe",
    "canonical_problem",
    "plan_recipe",
    "replay_recipe",
]
