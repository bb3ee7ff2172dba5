"""Structure sharding: routing stability, disjointness, dead shards.

Routing-only tests use endpoints that are never connected to
(:meth:`~repro.serving.shard.ShardRouter.shard_for` is pure); the
integration tests run real two-daemon fleets.
"""

from __future__ import annotations

import pytest

from repro.optimizer import OptimizerConfig, QuerySpec
from repro.serving import BackgroundServer, ServerError, ShardRouter
from repro.workloads import generators
from repro.workloads.repeated import relabeled


def spec(i: int, k: int = 0) -> QuerySpec:
    width = 3 + (k or (i % 5))
    return QuerySpec(
        relations=[(f"s{i}_{j}", 80.0 + 10.0 * j + i) for j in range(width)],
        joins=[(f"s{i}_{j}", f"s{i}_{j + 1}", 0.1) for j in range(width - 1)],
    )


def wire(query) -> QuerySpec:
    return QuerySpec.from_hypergraph(query.graph, query.cardinalities)


FAKE = [("10.0.0.1", 7411), ("10.0.0.2", 7411), ("10.0.0.3", 7411)]

SYMMETRIC = {
    "star-7": generators.star(7, seed=1),
    "star-9": generators.star(9, seed=1),
    "clique-8": generators.clique(8, seed=1),
}


class TestRouting:
    def test_routing_is_deterministic(self):
        router = ShardRouter(FAKE)
        for i in range(10):
            assert router.shard_for(spec(i)) == router.shard_for(spec(i))

    def test_isomorphic_queries_share_a_shard(self):
        """Routing ignores relation names: a copy with every relation
        renamed (same node order) lands on the original's shard."""
        router = ShardRouter(FAKE)
        original = QuerySpec(
            relations=[(f"a{j}", 100.0 + 10.0 * j) for j in range(4)],
            joins=[(f"a{j}", f"a{j + 1}", 0.1) for j in range(3)],
        )
        relabeled = QuerySpec(
            relations=[(f"z{j}", 100.0 + 10.0 * j) for j in range(4)],
            joins=[(f"z{j}", f"z{j + 1}", 0.1) for j in range(3)],
        )
        assert router.shard_for(original) == router.shard_for(relabeled)

    @pytest.mark.parametrize("shape", sorted(SYMMETRIC))
    def test_node_order_relabelings_share_a_shard(self, shape):
        """Symmetric shapes are where a budgeted canonical search gives
        up; the structure bucket needs no search, so every node-order
        relabeling of one query has one home."""
        router = ShardRouter(FAKE)
        query = SYMMETRIC[shape]
        copies = [wire(relabeled(query, seed=seed)) for seed in range(6)]
        homes = {router.shard_for(copy) for copy in copies}
        assert homes == {router.shard_for(wire(query))}

    def test_rendezvous_spreads_load(self):
        router = ShardRouter(FAKE)
        homes = {router.shard_for(spec(i)) for i in range(40)}
        assert len(homes) > 1

    def test_removing_an_endpoint_only_moves_its_keys(self):
        """The rendezvous property: queries homed on a surviving
        endpoint keep their shard when another endpoint leaves the
        configuration."""
        full = ShardRouter(FAKE)
        reduced = ShardRouter(FAKE[:2])
        for i in range(40):
            home = full.shard_for(spec(i))
            if home < 2:  # not on the removed endpoint
                assert reduced.shard_for(spec(i)) == home

    def test_endpoint_validation(self):
        with pytest.raises(ValueError):
            ShardRouter([])
        with pytest.raises(ValueError):
            ShardRouter([("h", 1), ("h", 1)])


class TestFleet:
    @pytest.fixture
    def fleet(self):
        daemons = [
            BackgroundServer(OptimizerConfig(cache="on")).start()
            for _ in range(2)
        ]
        try:
            yield daemons
        finally:
            for daemon in daemons:
                daemon.stop()

    def test_cache_populations_stay_disjoint(self, fleet):
        """The whole point of sharding: each structure lives on exactly
        one daemon, so the shard caches never overlap."""
        with ShardRouter([d.address for d in fleet]) as router:
            queries = [spec(i) for i in range(12)]
            answers = router.optimize_many(queries, depth=4)
            assert all(a["ok"] for a in answers)
            populations = [
                set(s["structures"]) for s in router.stats() if s
            ]
            assert len(populations) == 2
            assert populations[0].isdisjoint(populations[1])
            counters = router.counters()
            assert sum(counters["routed"]) == len(queries)
            assert counters["fallbacks"] == 0

    def test_repeat_batch_hits_the_home_shards(self, fleet):
        with ShardRouter([d.address for d in fleet]) as router:
            queries = [spec(i) for i in range(8)]
            router.optimize_many(queries, depth=4)
            again = router.optimize_many(queries, depth=4)
            assert all(a["cache_event"] == "hit" for a in again)

    def test_dead_shard_falls_back_to_local_compute(self, fleet):
        with ShardRouter([d.address for d in fleet]) as router:
            queries = [spec(i) for i in range(10)]
            baseline = router.optimize_many(queries, depth=4)
            victim = router.shard_for(queries[0])
            fleet[victim].stop()
            answers = [router.optimize(q) for q in queries]
            assert all(a["ok"] for a in answers)
            assert victim in router.dead_shards
            assert router.counters()["fallbacks"] > 0
            # fallback computes the same plan the dead shard served
            for before, after in zip(baseline, answers):
                if after.get("via") == "fallback":
                    assert after["cost"] == pytest.approx(before["cost"])
            # the surviving shard keeps serving over its live client
            survivor_queries = [
                q for q in queries
                if router.shard_for(q) != victim
            ]
            if survivor_queries:
                served = router.optimize(survivor_queries[0])
                assert served.get("via") in ("parent", "pool")

    def test_fallback_answer_has_the_daemon_answer_keys(self, fleet):
        with ShardRouter([fleet[0].address]) as router:
            served = router.optimize(spec(1))
            fleet[0].stop()
            fallback = router.optimize(spec(2))
        assert served["via"] in ("parent", "pool")
        assert fallback["via"] == "fallback"
        assert fallback.keys() == served.keys()

    def test_application_errors_do_not_kill_the_shard(self, fleet):
        disconnected = QuerySpec(
            relations=[("a", 1.0), ("b", 2.0), ("c", 3.0)],
            joins=[("a", "b", 0.1)],
        )
        with ShardRouter([d.address for d in fleet]) as router:
            with pytest.raises(ServerError):
                router.optimize(disconnected)
            assert router.dead_shards == []
            assert router.optimize(spec(1))["ok"]

    def test_single_shard_fleet_serves_everything(self, fleet):
        with ShardRouter([fleet[0].address]) as router:
            queries = [spec(i) for i in range(6)]
            answers = router.optimize_many(queries, depth=4)
            assert all(a["ok"] for a in answers)
            assert router.counters()["routed"] == [len(queries)]
