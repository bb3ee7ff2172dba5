"""Edge-case tests for the batch entry point ``Optimizer.optimize_many``:
mixed input kinds, disconnected-graph policies, empty batches, parallel
execution, and cache-hit determinism."""

import pytest

from repro import (
    DisconnectedGraphError,
    Hypergraph,
    Optimizer,
    OptimizerConfig,
    QuerySpec,
)
from repro.cache import build_cache_key, plan_recipe
from repro.workloads import generators
from repro.workloads.nonreorderable import star_antijoin_tree
from repro.workloads.repeated import repeated_workload


def mixed_workload():
    """One of each supported input kind."""
    spec = QuerySpec(
        relations={"a": 100, "b": 200, "c": 50},
        joins=[("a", "b", 0.01), ("b", "c", 0.05)],
    )
    bundle = generators.chain(5, seed=2)
    tree = star_antijoin_tree(4, 1, seed=3)
    return [bundle.graph, spec, bundle, tree]


class TestMixedBatches:
    def test_mixed_kinds_in_one_batch(self):
        opt = Optimizer()
        results = opt.optimize_many(mixed_workload())
        assert len(results) == 4
        assert all(result.plan is not None for result in results)
        # the tree result keeps its tree-path fields
        assert results[3].compiled is not None
        assert results[3].mode == "hyperedges"
        # graph-path results carry names via the graph
        assert results[1].relation_names == ["a", "b", "c"]

    def test_batch_matches_individual_calls(self):
        opt = Optimizer(OptimizerConfig(cache="off"))
        workload = mixed_workload()
        batch = opt.optimize_many(workload)
        singles = [opt.optimize(query) for query in workload]
        for one, other in zip(batch, singles):
            assert one.cost == other.cost
            assert one.algorithm == other.algorithm

    def test_hypergraph_without_cardinalities_uses_default(self):
        graph = generators.chain(4, seed=1).graph
        results = Optimizer(
            OptimizerConfig(default_cardinality=42.0)
        ).optimize_many([graph])
        leaf_cards = {
            plan.cardinality for plan in results[0].plan.leaves()
        }
        assert leaf_cards == {42.0}

    def test_empty_batch(self):
        assert Optimizer().optimize_many([]) == []
        assert Optimizer().optimize_many(iter([])) == []

    def test_generator_input(self):
        opt = Optimizer()
        results = opt.optimize_many(
            generators.chain(n, seed=n) for n in (3, 4, 5)
        )
        assert [len(list(r.plan.leaves())) for r in results] == [3, 4, 5]

    def test_unsupported_kind_raises(self):
        with pytest.raises(TypeError, match="cannot optimize"):
            Optimizer().optimize_many([object()])


class TestDisconnectedPolicies:
    def disconnected_graph(self):
        graph = Hypergraph(n_nodes=4)
        graph.add_simple_edge(0, 1, 0.1)
        graph.add_simple_edge(2, 3, 0.1)
        return graph

    def test_raise_policy_propagates_from_batch(self):
        workload = [generators.chain(3, seed=1), self.disconnected_graph()]
        with pytest.raises(DisconnectedGraphError):
            Optimizer().optimize_many(workload)

    def test_plan_none_policy_in_batch(self):
        opt = Optimizer(OptimizerConfig(on_disconnected="plan-none"))
        results = opt.optimize_many(
            [self.disconnected_graph(), generators.chain(3, seed=1)]
        )
        assert results[0].plan is None
        assert results[1].plan is not None
        # only the plannable query was cached
        assert len(opt.plan_cache) == 1

    def test_connect_policy_in_batch(self):
        opt = Optimizer(OptimizerConfig(on_disconnected="connect"))
        results = opt.optimize_many([self.disconnected_graph()])
        assert results[0].plan is not None
        assert results[0].plan.nodes == 0b1111

    def test_connect_policy_caches_connected_form(self):
        opt = Optimizer(OptimizerConfig(on_disconnected="connect"))
        graph = self.disconnected_graph()
        first = opt.optimize_many([graph])[0]
        second = opt.optimize_many([graph])[0]
        assert second.stats.extra["plan_cache"]["event"] == "hit"
        assert second.cost == first.cost


class TestDeterminismAndParallel:
    def test_results_keep_input_order(self):
        opt = Optimizer()
        workload = [generators.chain(n, seed=n) for n in (6, 3, 5, 4)]
        results = opt.optimize_many(workload)
        assert [len(list(r.plan.leaves())) for r in results] == [6, 3, 5, 4]

    @pytest.mark.parametrize("workers", [2, 4])
    def test_parallel_matches_serial(self, workers):
        workload = repeated_workload(
            generators.cycle(7, seed=4), 8, seed=2
        ) + [generators.star(5, seed=5)]
        serial = Optimizer(OptimizerConfig(cache="off")).optimize_many(
            workload
        )
        parallel = Optimizer().optimize_many(workload, parallel=workers)
        for one, other in zip(parallel, serial):
            assert one.cost == pytest.approx(other.cost, rel=1e-12)

    def test_parallel_workers_config_default(self):
        opt = Optimizer(OptimizerConfig(parallel_workers=3))
        workload = repeated_workload(generators.chain(6, seed=1), 6)
        results = opt.optimize_many(workload)
        for result in results[1:]:
            # equal up to float reassociation across node orders
            assert result.cost == pytest.approx(results[0].cost, rel=1e-12)

    def test_parallel_shares_one_cache_entry(self):
        opt = Optimizer()
        workload = repeated_workload(generators.chain(7, seed=3), 12, seed=4)
        opt.optimize_many(workload, parallel=4)
        assert len(opt.plan_cache) == 1
        counters = opt.plan_cache.counters()
        # every query either stored the entry or was served by it
        assert counters["hits"] + counters["stores"] >= len(workload)

    def test_cache_hit_determinism_on_vs_off(self):
        workload = repeated_workload(generators.star(6, seed=7), 5, seed=3)
        off = Optimizer(OptimizerConfig(cache="off")).optimize_many(
            workload, cache=False
        )
        on = Optimizer().optimize_many(workload)
        for cold, served in zip(off, on):
            # equal up to float reassociation across node orders
            assert served.cost == pytest.approx(cold.cost, rel=1e-12)
            assert served.cardinality == pytest.approx(
                cold.cardinality, rel=1e-12
            )
        # identical repeat of the base query: bit-identical result; the
        # cached tree is the canonical one, the uncached run orients
        # equal-cost joins by its own node order
        assert on[0].cost == off[0].cost
        assert on[0].cardinality == off[0].cardinality
        # every labeling is served the same canonical tree
        canonical = {
            plan_recipe(
                served.plan,
                build_cache_key(q.graph, q.cardinalities, ()).permutation,
            )
            for q, served in zip(workload, on)
        }
        assert len(canonical) == 1

    def test_per_call_cache_override(self):
        opt = Optimizer()   # cache="auto"
        workload = [generators.chain(4, seed=1)] * 3
        uncached = opt.optimize_many(workload, cache=False)
        assert all(r.stats.extra == {} for r in uncached)
        assert len(opt.plan_cache) == 0
        cached = opt.optimize_many(workload)
        assert [r.stats.extra["plan_cache"]["event"] for r in cached] == \
            ["miss", "hit", "hit"]

    def test_cache_off_config_wins_by_default(self):
        opt = Optimizer(OptimizerConfig(cache="off"))
        workload = [generators.chain(4, seed=1)] * 2
        results = opt.optimize_many(workload)
        assert all(r.stats.extra == {} for r in results)
        assert len(opt.plan_cache) == 0
