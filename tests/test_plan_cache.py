"""Tests for the plan-cache serving layer: PlanCache semantics, the
pipeline's cache stages, isomorphic sharing, and invalidation."""

import threading

import pytest

from repro import (
    AlgorithmInfo,
    Optimizer,
    OptimizerConfig,
    PlanCache,
    register_algorithm,
    unregister_algorithm,
)
from repro.cache import build_cache_key, structure_bucket
from repro.cache.recipe import plan_recipe, replay_recipe
from repro.core.plans import JoinPlanBuilder
from repro.cost.models import (
    CostModel,
    CoutModel,
    HashJoinModel,
    MinOfModel,
    NestedLoopModel,
)
from repro.workloads import generators
from repro.workloads.repeated import drifted, relabeled, repeated_workload


class TestPlanCacheLru:
    def test_store_and_hit(self):
        cache = PlanCache(capacity=4)
        cache.store("k1", "recipe-1", structure="s1", cost=10.0)
        entry, status = cache.probe("k1")
        assert status == "hit" and entry.recipe == "recipe-1"
        assert cache.hits == 1 and cache.misses == 0

    def test_miss_counts(self):
        cache = PlanCache(capacity=4)
        assert cache.lookup("nope") is None
        assert cache.misses == 1

    def test_lru_eviction_order(self):
        cache = PlanCache(capacity=2)
        cache.store("a", 1)
        cache.store("b", 2)
        cache.lookup("a")          # refresh a: b is now least recent
        cache.store("c", 3)        # evicts b
        assert cache.lookup("a") is not None
        assert cache.lookup("c") is not None
        assert cache.lookup("b") is None
        assert cache.evictions == 1

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            PlanCache(capacity=0)

    def test_epoch_bump_revalidates(self):
        cache = PlanCache()
        cache.store("k", "r")
        cache.bump_epoch()
        entry, status = cache.probe("k")
        assert entry is None and status == "stale"
        assert cache.revalidations == 1
        cache.store("k", "r2")     # refresh at the new epoch
        entry, status = cache.probe("k")
        assert status == "hit" and entry.recipe == "r2"

    def test_invalidate_structure(self):
        cache = PlanCache()
        cache.store("k1", "r", structure="chain")
        cache.store("k2", "r", structure="chain")
        cache.store("k3", "r", structure="star")
        assert cache.invalidate_structure("chain") == 2
        assert len(cache) == 1
        assert cache.structures() == {"star": 1}

    def test_clear(self):
        cache = PlanCache()
        cache.store("k", "r")
        cache.clear()
        assert len(cache) == 0

    def test_counters_snapshot(self):
        cache = PlanCache(capacity=3)
        cache.store("k", "r")
        cache.lookup("k")
        snapshot = cache.counters()
        assert snapshot["hits"] == 1
        assert snapshot["size"] == 1
        assert snapshot["capacity"] == 3

    def test_thread_safety_smoke(self):
        cache = PlanCache(capacity=16)
        errors = []

        def hammer(worker):
            try:
                for i in range(300):
                    key = (worker + i) % 32
                    if cache.lookup(key) is None:
                        cache.store(key, f"r{key}")
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(w,)) for w in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        assert len(cache) <= 16


class TestCacheKeys:
    def test_cost_model_keys_differ_by_class(self):
        assert CoutModel().cache_key() != NestedLoopModel().cache_key()

    def test_stateless_models_share_keys(self):
        assert CoutModel().cache_key() == CoutModel().cache_key()

    def test_hash_join_parameterized(self):
        assert HashJoinModel(1.5).cache_key() == HashJoinModel(1.5).cache_key()
        assert HashJoinModel(1.5).cache_key() != HashJoinModel(2.0).cache_key()

    def test_min_of_model_composes(self):
        a = MinOfModel([NestedLoopModel(), HashJoinModel(1.5)])
        b = MinOfModel([NestedLoopModel(), HashJoinModel(1.5)])
        c = MinOfModel([NestedLoopModel(), HashJoinModel(3.0)])
        assert a.cache_key() == b.cache_key()
        assert a.cache_key() != c.cache_key()

    def test_unknown_stateful_model_is_instance_keyed(self):
        class Weird(CostModel):
            def __init__(self):
                self.wobble = 1.0

            def join_cost(self, operator, left, right, out):
                return out

        one, two = Weird(), Weird()
        assert one.cache_key() == one.cache_key()   # stable per instance
        assert one.cache_key() != two.cache_key()   # never shared

    def test_config_key_stability(self):
        assert OptimizerConfig().cache_key() == OptimizerConfig().cache_key()
        # default cost model and explicit CoutModel share a key
        assert OptimizerConfig().cache_key() == \
            OptimizerConfig(cost_model=CoutModel()).cache_key()

    def test_config_key_discriminates_semantics(self):
        base = OptimizerConfig()
        assert base.cache_key() != \
            OptimizerConfig(algorithm="greedy").cache_key()
        assert base.cache_key() != \
            OptimizerConfig(cost_model=HashJoinModel()).cache_key()
        assert base.cache_key() != \
            OptimizerConfig(mode="tes-filter").cache_key()

    def test_config_key_ignores_plumbing(self):
        base = OptimizerConfig()
        assert base.cache_key() == OptimizerConfig(cache="on").cache_key()
        assert base.cache_key() == \
            OptimizerConfig(parallel_workers=4).cache_key()
        assert base.cache_key() == \
            OptimizerConfig(default_cardinality=5.0).cache_key()

    def test_config_validation_of_new_fields(self):
        with pytest.raises(ValueError):
            OptimizerConfig(cache="sometimes")
        with pytest.raises(ValueError):
            OptimizerConfig(cache_size=0)
        with pytest.raises(ValueError):
            OptimizerConfig(parallel_workers=0)

    def test_config_is_hashable(self):
        # usable as part of a dict key / cache key
        assert hash(OptimizerConfig()) == hash(OptimizerConfig())

    def test_structure_bucket_isomorphism_invariant(self):
        query = generators.cycle(6, seed=3)
        copy = relabeled(query, seed=5)
        assert structure_bucket(query.graph) == structure_bucket(copy.graph)
        assert structure_bucket(query.graph) != \
            structure_bucket(generators.chain(6, seed=3).graph)

    def test_build_cache_key_separates_stats(self):
        query = generators.chain(5, seed=2)
        config_key = OptimizerConfig().cache_key()
        one = build_cache_key(query.graph, query.cardinalities, config_key)
        moved = drifted(query, seed=9)
        two = build_cache_key(moved.graph, moved.cardinalities, config_key)
        assert one.key != two.key                                 # stats differ
        assert structure_bucket(query.graph) == \
            structure_bucket(moved.graph)                         # same shape


class TestOptimizerCaching:
    def test_single_optimize_uncached_by_default(self):
        opt = Optimizer()
        query = generators.chain(5, seed=1)
        result = opt.optimize(query)
        assert result.stats.extra == {}
        assert len(opt.plan_cache) == 0

    def test_cache_on_single_optimize(self):
        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(5, seed=1)
        first = opt.optimize(query)
        second = opt.optimize(query)
        assert first.stats.extra["plan_cache"]["event"] == "miss"
        assert second.stats.extra["plan_cache"]["event"] == "hit"
        assert second.cost == first.cost
        assert second.plan.join_order() == first.plan.join_order()

    def test_isomorphic_queries_share_one_entry(self):
        opt = Optimizer()
        workload = repeated_workload(generators.cycle(7, seed=4), 6, seed=1)
        results = opt.optimize_many(workload)
        assert len(opt.plan_cache) == 1
        events = [r.stats.extra["plan_cache"]["event"] for r in results]
        assert events == ["miss"] + ["hit"] * 5
        # costs agree up to float reassociation across node orders
        for result in results[1:]:
            assert result.cost == pytest.approx(results[0].cost, rel=1e-12)

    def test_cache_hit_matches_cache_off_bit_for_bit(self):
        """Cost and cardinality equal the uncached run's bit for bit;
        the tree is the one the miss served (both replay the canonical
        recipe), while an uncached run orients equal-cost joins by the
        caller's node order."""
        query = generators.star(6, seed=5)
        baseline = Optimizer(OptimizerConfig(cache="off")).optimize(query)
        opt = Optimizer(OptimizerConfig(cache="on"))
        cold = opt.optimize(query)
        served = opt.optimize(query)
        assert served.cost == cold.cost == baseline.cost
        assert served.cardinality == cold.cardinality == baseline.cardinality
        assert served.plan.join_order() == cold.plan.join_order()
        assert served.explain() == cold.explain()

    def test_different_stats_do_not_hit(self):
        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(5, seed=1)
        opt.optimize(query)
        moved = drifted(query, seed=3)
        result = opt.optimize(moved)
        assert result.stats.extra["plan_cache"]["event"] == "miss"
        assert len(opt.plan_cache) == 2

    def test_different_cost_models_do_not_share(self):
        shared = PlanCache()
        query = generators.chain(5, seed=1)
        cout = Optimizer(
            OptimizerConfig(cache="on"), plan_cache=shared
        )
        nlj = Optimizer(
            OptimizerConfig(cache="on", cost_model=NestedLoopModel()),
            plan_cache=shared,
        )
        cout.optimize(query)
        result = nlj.optimize(query)
        assert result.stats.extra["plan_cache"]["event"] == "miss"
        assert len(shared) == 2

    def test_shared_cache_across_optimizers(self):
        shared = PlanCache()
        query = generators.chain(6, seed=2)
        Optimizer(OptimizerConfig(cache="on"), plan_cache=shared).optimize(
            query
        )
        other = Optimizer(OptimizerConfig(cache="on"), plan_cache=shared)
        assert other.optimize(query).stats.extra["plan_cache"]["event"] == \
            "hit"

    def test_epoch_bump_revalidates_through_facade(self):
        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(5, seed=1)
        opt.optimize(query)
        opt.plan_cache.bump_epoch()
        result = opt.optimize(query)
        assert result.stats.extra["plan_cache"]["event"] == "revalidated"
        assert opt.optimize(query).stats.extra["plan_cache"]["event"] == "hit"

    def test_custom_builder_bypasses_cache(self):
        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(4, seed=1)
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        result = opt.optimize(query.graph, builder=builder)
        assert result.stats.extra["plan_cache"]["event"] == "bypass"
        assert len(opt.plan_cache) == 0

    def test_operator_trees_bypass_cache(self):
        from repro.workloads.nonreorderable import star_antijoin_tree

        opt = Optimizer(OptimizerConfig(cache="on"))
        tree = star_antijoin_tree(4, 1, seed=7)
        result = opt.optimize(tree)
        assert result.stats.extra["plan_cache"]["event"] == "bypass"
        assert len(opt.plan_cache) == 0

    def test_non_cacheable_algorithm_bypasses(self):
        def scan_solver(graph, builder, stats):
            plan = builder.leaf(0)
            for node in range(1, graph.n_nodes):
                leaf = builder.leaf(node)
                edges = graph.connecting_edges(plan.nodes, leaf.nodes)
                plan = min(
                    builder.join_unordered(plan, leaf, edges),
                    key=lambda p: p.cost,
                )
            return plan

        register_algorithm(AlgorithmInfo(
            name="test-noncacheable",
            solver=scan_solver,
            exact=False,
            cacheable=False,
        ))
        try:
            opt = Optimizer(OptimizerConfig(
                algorithm="test-noncacheable", cache="on"
            ))
            query = generators.chain(4, seed=1)
            result = opt.optimize(query)
            assert result.stats.extra["plan_cache"]["event"] == "bypass"
            assert len(opt.plan_cache) == 0
        finally:
            unregister_algorithm("test-noncacheable")

    def test_unplannable_results_not_stored(self):
        from repro.core.hypergraph import Hypergraph

        disconnected = Hypergraph(n_nodes=2)   # no edges
        opt = Optimizer(OptimizerConfig(
            cache="on", on_disconnected="plan-none"
        ))
        result = opt.optimize(disconnected)
        assert result.plan is None
        assert len(opt.plan_cache) == 0

    def test_greedy_plans_cacheable(self):
        opt = Optimizer(OptimizerConfig(algorithm="greedy", cache="on"))
        query = generators.chain(8, seed=6)
        first = opt.optimize(query)
        second = opt.optimize(query)
        assert second.stats.extra["plan_cache"]["event"] == "hit"
        assert second.plan.join_order() == first.plan.join_order()

    def test_replaced_solver_never_served_stale_plans(self):
        def left_deep(order):
            def solver(graph, builder, stats):
                plan = builder.leaf(order[0])
                for node in order[1:]:
                    leaf = builder.leaf(node)
                    edges = graph.connecting_edges(plan.nodes, leaf.nodes)
                    plan = builder.join_ordered(plan, leaf, edges)[0]
                return plan
            return solver

        query = generators.chain(4, seed=1)
        forward = list(range(4))
        backward = forward[::-1]
        register_algorithm(AlgorithmInfo(
            name="test-replaceable", solver=left_deep(forward), exact=False,
        ))
        try:
            opt = Optimizer(OptimizerConfig(
                algorithm="test-replaceable", cache="on"
            ))
            first = opt.optimize(query)
            register_algorithm(AlgorithmInfo(
                name="test-replaceable", solver=left_deep(backward),
                exact=False,
            ), replace=True)
            after = opt.optimize(query)
            # the replacement's plan, not the cached predecessor's
            assert after.stats.extra["plan_cache"]["event"] == "miss"
            assert after.plan.join_order() != first.plan.join_order()
        finally:
            unregister_algorithm("test-replaceable")

    def test_replay_failure_reclassified_and_entry_dropped(self):
        opt = Optimizer(OptimizerConfig(cache="on"))
        query = generators.chain(4, seed=1)
        opt.optimize(query)
        # corrupt the stored recipe in place
        ((key, entry),) = list(opt.plan_cache._entries.items())
        entry.recipe = (99, 98)   # leaf ranks far outside the graph
        result = opt.optimize(query)
        assert result.plan is not None   # recomputed, not failed
        assert result.stats.extra["plan_cache"]["event"] == "replay_failed"
        assert opt.plan_cache.replay_failures == 1
        assert opt.plan_cache.hits == 0           # optimistic hit undone
        # the corrupt entry was dropped and refreshed by the recompute
        assert opt.optimize(query).stats.extra["plan_cache"]["event"] == \
            "hit"

    def test_lru_bound_respected_through_facade(self):
        opt = Optimizer(OptimizerConfig(cache="on", cache_size=2))
        for n in (3, 4, 5):
            opt.optimize(generators.chain(n, seed=n))
        assert len(opt.plan_cache) == 2
        assert opt.plan_cache.evictions == 1


class TestRecipeRoundtrip:
    def test_recipe_replay_identity(self):
        query = generators.star(5, seed=9)
        baseline = Optimizer(OptimizerConfig(cache="off")).optimize(query)
        identity = tuple(range(query.n_relations))
        recipe = plan_recipe(baseline.plan, identity)
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        replayed = replay_recipe(recipe, identity, query.graph, builder)
        assert replayed.cost == baseline.cost
        assert replayed.join_order() == baseline.plan.join_order()

    def test_recipe_preserves_orientation_under_asymmetric_cost(self):
        query = generators.chain(6, seed=3)
        config = OptimizerConfig(cost_model=HashJoinModel(), cache="off")
        baseline = Optimizer(config).optimize(query)
        opt = Optimizer(OptimizerConfig(
            cost_model=HashJoinModel(), cache="on"
        ))
        opt.optimize(query)
        served = opt.optimize(query)
        assert served.stats.extra["plan_cache"]["event"] == "hit"
        assert served.cost == baseline.cost
        assert served.plan.render() == baseline.plan.render()
