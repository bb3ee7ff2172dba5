#!/usr/bin/env python3
"""Tour of the Optimizer facade: auto dispatch, batching, caching.

Five things the unified front door gives you beyond the one-shot
entry points:

1. **Capability-aware auto dispatch** — one Optimizer picks DPccp for
   small simple graphs, DPhyp for hypergraphs with complex edges, and
   the greedy heuristic beyond the exact-search size threshold, purely
   from the registry metadata.
2. **Batch throughput** — optimize_many() pushes a mixed workload
   through one configured instance; to_dict() makes every result
   JSON-serializable for downstream services.
3. **An extension point** — register_algorithm() plugs a new solver
   into every entry point (facade, legacy wrappers, bench harness)
   without editing core files.
4. **The plan cache** — repeated (even relabeled/isomorphic) queries
   are served by canonical fingerprint lookup + recipe replay instead
   of re-enumeration; optimize_many() uses it by default.
5. **Persistence** — with OptimizerConfig(cache_path="....sqlite") the
   cache survives the process in a SQLite plan store: autosaved after
   each batch, auto-loaded on the next start, so a restarted server's
   first repeated query is already a cache hit.

Run:  python examples/facade_tour.py
"""

import json
import os
import tempfile
import time

from repro import (
    AlgorithmInfo,
    Optimizer,
    OptimizerConfig,
    QuerySpec,
    register_algorithm,
    unregister_algorithm,
)
from repro.workloads import generators
from repro.workloads.repeated import repeated_workload


def main() -> None:
    # -- 1. auto dispatch across query shapes ---------------------------
    spec_with_complex_join = QuerySpec(
        relations={"r1": 100, "r2": 500, "r3": 1_000, "r4": 250},
        joins=[
            ("r1", "r2", 0.01),
            ("r3", "r4", 0.02),
            # n-ary predicate f(r1, r2) = g(r3, r4) as a hyperedge
            {"left": ["r1", "r2"], "right": ["r3", "r4"],
             "selectivity": 0.001,
             "predicate": "f(r1.a, r2.b) = g(r3.c, r4.d)"},
        ],
    )
    workload = [
        generators.chain(5),        # small simple graph  -> dpccp
        generators.star(6),         # small simple graph  -> dpccp
        generators.cycle(12),       # mid-size simple     -> dphyp
        spec_with_complex_join,     # complex hyperedge   -> dphyp
        generators.chain(20),       # beyond threshold    -> greedy
    ]
    auto = Optimizer()  # OptimizerConfig(algorithm="auto") by default
    print(f"{'query':>22}  {'auto picked':>11}  {'cost':>16}")
    results = auto.optimize_many(workload)
    for query, result in zip(workload, results):
        label = getattr(query, "description", "") or "complex-join spec"
        print(f"{label:>22}  {result.algorithm:>11}  {result.cost:>16,.0f}")

    # -- 2. JSON-ready results -----------------------------------------
    document = results[3].to_dict()
    print()
    print("to_dict() of the complex-join query (truncated):")
    print(json.dumps(
        {k: document[k] for k in
         ("algorithm", "requested_algorithm", "relation_names", "cost")},
        indent=2,
    ))
    print("EXPLAIN shows the predicate annotation from the QuerySpec:")
    print(results[3].explain())

    # -- 3. registering a custom solver ---------------------------------
    def solve_rightdeep(graph, builder, stats):
        """Toy heuristic: join relations left-to-right in index order."""
        plan = builder.leaf(graph.n_nodes - 1)
        for node in range(graph.n_nodes - 2, -1, -1):
            left = builder.leaf(node)
            edges = graph.connecting_edges(left.nodes, plan.nodes)
            candidates = builder.join_unordered(left, plan, edges)
            plan = min(candidates, key=lambda p: p.cost)
        return plan

    register_algorithm(AlgorithmInfo(
        name="rightdeep",
        solver=solve_rightdeep,
        exact=False,
        description="toy right-deep heuristic from the facade tour",
    ))
    try:
        query = generators.chain(8)
        ours = Optimizer(OptimizerConfig(algorithm="rightdeep")).optimize(query)
        best = Optimizer(OptimizerConfig(algorithm="dphyp")).optimize(query)
        print()
        print(f"registered 'rightdeep' heuristic: cost {ours.cost:,.0f} "
              f"vs optimal {best.cost:,.0f} "
              f"({ours.cost / best.cost:.2f}x)")
    finally:
        unregister_algorithm("rightdeep")

    # -- 4. the plan cache: serving a repeated workload -----------------
    # 20 copies of one star query, each with its nodes, names, and edge
    # order permuted — the same query as different clients would send
    # it.  The canonical fingerprint maps all of them to ONE cache
    # entry; after the first enumeration every copy is served by
    # replaying the cached join order through its own plan builder.
    batch = repeated_workload(generators.star(8, seed=21), copies=20)
    server = Optimizer()   # cache="auto": on for optimize_many

    start = time.perf_counter()
    cold = server.optimize_many(batch, cache=False)   # pre-cache behaviour
    cold_ms = (time.perf_counter() - start) * 1000

    server.optimize_many(batch)                        # warm the cache
    start = time.perf_counter()
    hot = server.optimize_many(batch)                  # pure hits
    hot_ms = (time.perf_counter() - start) * 1000

    events = [r.stats.extra["plan_cache"]["event"] for r in hot]
    print()
    print(f"plan cache on {len(batch)} relabeled copies of star-8:")
    print(f"  cold (cache off): {cold_ms:7.1f} ms   "
          f"hot (all {events.count('hit')} hits): {hot_ms:7.1f} ms   "
          f"speedup {cold_ms / hot_ms:.1f}x")
    print(f"  cache entries: {len(server.plan_cache)} "
          f"(isomorphic copies share one), "
          f"hit rate {server.plan_cache.hit_rate:.0%}")
    assert all(
        abs(h.cost - c.cost) <= 1e-9 * c.cost for h, c in zip(hot, cold)
    )

    # -- 5. persistence: surviving a process restart --------------------
    # Same batch, but the cache lives in the plan store at cache_path.
    # The first server boots cold, pays the one enumeration, and
    # autosaves at the end of the batch.  The "restarted" server (a
    # brand-new Optimizer, as after a kill -9 + reboot) auto-loads the
    # store and serves its very first query by recipe replay.
    with tempfile.TemporaryDirectory() as tmp:
        cache_path = os.path.join(tmp, "plan-cache.sqlite")
        config = OptimizerConfig(cache="on", cache_path=cache_path)

        first_boot = Optimizer(config)
        start = time.perf_counter()
        first_boot.optimize_many(batch)              # cold + autosave
        cold_boot_ms = (time.perf_counter() - start) * 1000
        persisted = len(first_boot.plan_cache)

        restarted = Optimizer(config)                # simulated restart
        start = time.perf_counter()
        warm = restarted.optimize_many(batch)        # auto-loaded, all hits
        warm_boot_ms = (time.perf_counter() - start) * 1000

        first_event = warm[0].stats.extra["plan_cache"]["event"]
        print()
        print("persistence across a simulated restart "
              f"(persisted entries: {persisted}):")
        print(f"  cold boot: {cold_boot_ms:7.1f} ms   "
              f"warm restart: {warm_boot_ms:7.1f} ms   "
              f"speedup {cold_boot_ms / warm_boot_ms:.1f}x")
        print(f"  first query after restart: {first_event!r}, "
              f"restored entries: "
              f"{restarted.plan_cache.counters()['restored']}")
        assert first_event == "hit"


if __name__ == "__main__":
    main()
