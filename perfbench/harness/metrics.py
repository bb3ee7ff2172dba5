"""Names, units and directions of every metric the benchmark prints.

``BENCHMARK.json`` at the repository root mirrors these lists; the
self-tests check that the two agree.  Per-layer metrics that a workload
does not exercise (the wire on an in-process workload, say) are printed
as ``0``: the layer did no work.
"""

from __future__ import annotations

#: name -> (unit, better)
END_TO_END = {
    "qps": ("req/s", "higher"),
    "latency_ms_p50": ("ms", "lower"),
    "latency_ms_p99": ("ms", "lower"),
    "batch_ms_p50": ("ms", "lower"),
    "batch_ms_p90": ("ms", "lower"),
    "setup_s": ("s", "lower"),
    "ok_frac": ("fraction", "higher"),
    "cost_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}

#: plan-selection routes ``algorithm="auto"`` can take today
ROUTES = ("dpccp", "dphyp", "dphyp-kernel", "greedy")

_COUNT = "count"

#: name -> unit, grouped by layer in the order of the layer map
PER_LAYER = {
    "normalize.self_ms": "ms",
    "normalize.share": "fraction",
    "fingerprint.self_ms": "ms",
    "fingerprint.share": "fraction",
    "fingerprint.canonical_fallbacks": _COUNT,
    "cache.lookup_ms": "ms",
    "cache.store_ms": "ms",
    "cache.hits": _COUNT,
    "cache.misses": _COUNT,
    "cache.hit_rate": "fraction",
    "cache.evictions": _COUNT,
    "cache.replay_failures": _COUNT,
    "dispatch.self_ms": "ms",
    "dispatch.share": "fraction",
    "dispatch.ccp_emitted": _COUNT,
    "dispatch.cost_calls": _COUNT,
    **{f"dispatch.route.{route}": _COUNT for route in ROUTES},
    "finalize.self_ms": "ms",
    "wire.client_ms": "ms",
    "wire.request_bytes": "bytes",
    "wire.response_bytes": "bytes",
    "server.parent_ms_p50": "ms",
    "server.pool_ms_p50": "ms",
    "server.served_parent": _COUNT,
    "server.served_pool": _COUNT,
    "server.rejected": _COUNT,
    "server.window_rejections": _COUNT,
    "server.save_overlap_ms_p99": "ms",
    "sync.full_syncs": _COUNT,
    "sync.delta_syncs": _COUNT,
    "sync.delta_entries": _COUNT,
    "sync.snapshot_bytes": "bytes",
    "tier.hits": _COUNT,
    "tier.publishes": _COUNT,
    "tier.rows_published": _COUNT,
    "tier.reads": _COUNT,
    "store.load_ms": "ms",
    "store.sync_ms": "ms",
    "store.syncs": _COUNT,
    "store.rows_written": _COUNT,
    "store.file_bytes": "bytes",
    "store.auto_vacuums": _COUNT,
    "batch.parent_hits": _COUNT,
    "batch.offloaded": _COUNT,
    "batch.snapshot_bytes": "bytes",
    "batch.pool_ms": "ms",
    "tracing.untraced_qps": "req/s",
    "tracing.traced_qps": "req/s",
    "tracing.overhead": "fraction",
}

#: layer -> (modules, metrics, end-to-end metrics it should move, flat on)
LAYER_MAP = {
    "normalize": (
        "optimizer.NormalizeStage, QuerySpec.to_hypergraph",
        ["normalize.self_ms", "normalize.share"],
        "qps and latency_ms_p50 on plan-hot",
        "plan-cold",
    ),
    "fingerprint": (
        "FingerprintStage -> cache.keys.build_cache_key, core.canonical",
        ["fingerprint.self_ms", "fingerprint.share",
         "fingerprint.canonical_fallbacks"],
        "qps and latency_ms_p50 on plan-hot; latency_ms_p50 on serve-mixed",
        "plan-cold",
    ),
    "cache": (
        "CacheStage.lookup/store, cache.plan_cache, cache.recipe",
        ["cache.lookup_ms", "cache.store_ms", "cache.hits", "cache.misses",
         "cache.hit_rate", "cache.evictions", "cache.replay_failures"],
        "lookup: latency_ms_p50 on plan-hot; store and evictions: qps on "
        "plan-cold",
        "-",
    ),
    "dispatch": (
        "DispatchStage, registry.select_auto, core enumerators",
        ["dispatch.self_ms", "dispatch.share", "dispatch.ccp_emitted",
         "dispatch.cost_calls"]
        + [f"dispatch.route.{route}" for route in ROUTES],
        "qps, latency_ms_p99 and cost_ratio on plan-cold",
        "plan-hot",
    ),
    "finalize": (
        "FinalizeStage",
        ["finalize.self_ms"],
        "qps on plan-hot",
        "-",
    ),
    "wire": (
        "serving.protocol, serving.client",
        ["wire.client_ms", "wire.request_bytes", "wire.response_bytes"],
        "latency_ms_p50 on serve-mixed",
        "plan-*",
    ),
    "server": (
        "serving.server (stats op, each response's via)",
        ["server.parent_ms_p50", "server.pool_ms_p50",
         "server.served_parent", "server.served_pool", "server.rejected",
         "server.window_rejections", "server.save_overlap_ms_p99"],
        "latency_ms_p50 and latency_ms_p99 on serve-mixed",
        "plan-*",
    ),
    "pool": (
        "serving.worker, serving.sync, serving.shared_tier",
        ["sync.full_syncs", "sync.delta_syncs", "sync.delta_entries",
         "sync.snapshot_bytes", "tier.hits", "tier.publishes",
         "tier.rows_published", "tier.reads"],
        "qps, latency_ms_p99, setup_s and peak_rss_mb on serve-mixed",
        "plan-*",
    ),
    "store": (
        "cache.store.PlanStore",
        ["store.load_ms", "store.sync_ms", "store.syncs",
         "store.rows_written", "store.file_bytes", "store.auto_vacuums"],
        "setup_s and latency_ms_p99 on serve-mixed",
        "plan-*",
    ),
    "batch": (
        'optimize_many(executor="process")',
        ["batch.parent_hits", "batch.offloaded", "batch.snapshot_bytes",
         "batch.pool_ms"],
        "qps and batch_ms_p50 on batch-process",
        "plan-*, serve-mixed",
    ),
    "tracing": (
        "the benchmark's own span recorder",
        ["tracing.untraced_qps", "tracing.traced_qps", "tracing.overhead"],
        "- (instrument cost, reported per workload)",
        "-",
    ),
}
