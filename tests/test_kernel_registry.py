"""Registry, auto-dispatch and plan-cache behavior of ``dphyp``.

One registration, ``"dphyp"``, serves inner joins, hypergraphs and
operator trees alike; these tests pin the routing consequences:

* ``algorithm="auto"`` hands every exact query to ``dphyp`` —
  operator trees included;
* ``"dphyp"`` on a tree, asked for explicitly, runs and matches the
  recursive oracle; the retired ``"dphyp-kernel"`` name is unknown;
* plan-cache keys *distinguish* ``dphyp`` from ``dphyp-recursive``
  (the registration fingerprint is part of every key, so replacing
  either implementation invalidates only its own entries) while the
  cached recipes — and the replayed plans — are identical, because
  both produce bit-identical plans.
"""

import pytest

from repro.algebra.expr import Equals, attr
from repro.algebra.operators import JOIN
from repro.algebra.optree import Relation, leaf, node
from repro.cache.plan_cache import PlanCache
from repro.optimizer import Optimizer, OptimizerConfig
from repro.registry import EXACT_MAX_RELATIONS, get_algorithm, select_auto
from repro.workloads import generators
from repro.workloads.nonreorderable import star_antijoin_tree


def join_chain_tree(n):
    """Left-deep inner-join tree over ``n`` relations."""

    def rel(i):
        return leaf(Relation(name=f"R{i}", cardinality=10.0 + i))

    tree = rel(0)
    for i in range(1, n):
        tree = node(
            JOIN, tree, rel(i),
            Equals(attr(f"R{i - 1}.a"), attr(f"R{i}.a")),
        )
    return tree


class TestRegistration:
    def test_one_registration_serves_every_query_kind(self):
        info = get_algorithm("dphyp")
        assert info.supports_operator_trees
        assert info.supports_hypergraphs
        assert info.exact
        assert info.auto_priority > get_algorithm("greedy").auto_priority

    def test_auto_routing_has_no_floor(self):
        # every exact size goes to dphyp; only EXACT_MAX_RELATIONS
        # sends a query to greedy instead
        for n in range(2, EXACT_MAX_RELATIONS + 1):
            info = select_auto(generators.chain(n).graph)
            assert info.name == "dphyp", (n, info.name)
        for n in (EXACT_MAX_RELATIONS + 1, 30):
            info = select_auto(generators.chain(n).graph)
            assert info.name == "greedy", (n, info.name)

    def test_auto_routes_trees_to_dphyp(self):
        # a tree resolves like a hypergraph of the same size
        graph = generators.chain(EXACT_MAX_RELATIONS).graph
        assert select_auto(graph).name == "dphyp"
        assert select_auto(graph, from_tree=True).name == "dphyp"


class TestOperatorTrees:
    def test_auto_tree_resolves_to_dphyp(self):
        tree = join_chain_tree(EXACT_MAX_RELATIONS)
        result = Optimizer(OptimizerConfig(algorithm="auto")).optimize(tree)
        assert result.algorithm == "dphyp"
        assert result.requested_algorithm == "auto"
        assert result.plan is not None

    @pytest.mark.parametrize("mode", ["hyperedges", "tes-filter"])
    def test_explicit_dphyp_on_tree_matches_the_oracle(self, mode):
        tree = star_antijoin_tree(6, 3, seed=1)
        result = Optimizer(
            OptimizerConfig(algorithm="dphyp", mode=mode)
        ).optimize(tree)
        oracle = Optimizer(
            OptimizerConfig(algorithm="dphyp-recursive", mode=mode)
        ).optimize(tree)
        assert result.algorithm == "dphyp"
        assert result.plan is not None
        assert result.cost == oracle.cost
        assert result.cardinality == oracle.cardinality
        assert result.stats.ccp_emitted == oracle.stats.ccp_emitted

    def test_kernel_name_is_unknown(self):
        with pytest.raises(ValueError, match="unknown algorithm"):
            get_algorithm("dphyp-kernel")
        with pytest.raises(ValueError, match="unknown algorithm"):
            Optimizer(OptimizerConfig(algorithm="dphyp-kernel"))


class TestPlanCacheInterplay:
    def run_cached(self, algorithm, query):
        cache = PlanCache()
        facade = Optimizer(
            OptimizerConfig(algorithm=algorithm, cache="on"),
            plan_cache=cache,
        )
        first = facade.optimize(query)
        second = facade.optimize(query)
        return cache, first, second

    def test_keys_differ_but_recipes_are_identical(self):
        query = generators.chain(12)
        dphyp_cache, dphyp_result, _ = self.run_cached("dphyp", query)
        oracle_cache, oracle_result, _ = self.run_cached(
            "dphyp-recursive", query
        )
        (dphyp_key, dphyp_entry), = dphyp_cache.snapshot_entries()
        (oracle_key, oracle_entry), = oracle_cache.snapshot_entries()
        # the registration fingerprint keeps the keys apart ...
        assert dphyp_key != oracle_key
        # ... while plans, recipes and costs are interchangeable
        assert dphyp_entry.recipe == oracle_entry.recipe
        assert dphyp_entry.cost == oracle_entry.cost
        assert dphyp_entry.structure == oracle_entry.structure
        assert dphyp_result.plan.cost == oracle_result.plan.cost

    def test_kernel_replay_hit_is_identical(self):
        query = generators.chain(12)
        _, first, second = self.run_cached("dphyp", query)
        assert first.stats.extra["plan_cache"]["event"] == "miss"
        assert second.stats.extra["plan_cache"]["event"] == "hit"
        assert second.plan.cost == first.plan.cost
        assert second.plan.cardinality == first.plan.cardinality
