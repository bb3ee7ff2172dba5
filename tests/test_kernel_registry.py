"""Registry, auto-dispatch and plan-cache behavior of ``dphyp-kernel``.

The kernel is registered with deliberately narrow capabilities and no
size floor; these tests pin the routing consequences:

* ``algorithm="auto"`` hands every exact inner-join query to the
  kernel but never an operator-tree query — trees keep going to
  ``dphyp``;
* asking for the kernel on a tree explicitly is a loud
  :class:`~repro.registry.CapabilityError`, not silent fallback;
* plan-cache keys *distinguish* ``dphyp`` from ``dphyp-kernel`` (the
  registration fingerprint is part of every key, so replacing either
  implementation invalidates only its own entries) while the cached
  recipes — and the replayed plans — are identical, because the
  kernel produces bit-identical plans.
"""

import pytest

from repro.algebra.expr import Equals, attr
from repro.algebra.operators import JOIN
from repro.algebra.optree import Relation, leaf, node
from repro.cache.plan_cache import PlanCache
from repro.optimizer import Optimizer, OptimizerConfig
from repro.registry import CapabilityError, get_algorithm, select_auto
from repro.workloads import generators


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
    def test_registered_with_narrow_capabilities(self):
        info = get_algorithm("dphyp-kernel")
        assert info.supports_operator_trees is False
        assert info.auto_priority > get_algorithm("dphyp").auto_priority

    def test_auto_routing_has_no_floor(self):
        # every exact inner-join size goes to the kernel; only the
        # exact threshold sends a query to greedy instead
        expectations = [
            (2, 14, "dphyp-kernel"),
            (4, 14, "dphyp-kernel"),
            (10, 14, "dphyp-kernel"),
            (14, 14, "dphyp-kernel"),
            (15, 14, "greedy"),
            (16, 20, "dphyp-kernel"),
            (30, 40, "dphyp-kernel"),
        ]
        for n, threshold, expected in expectations:
            info = select_auto(generators.chain(n).graph, threshold)
            assert info.name == expected, (n, threshold, info.name)

    def test_auto_routes_trees_to_dphyp(self):
        # 16 relations, threshold 20: a hypergraph query would pick
        # the kernel — the tree must not
        graph = generators.chain(16).graph
        assert select_auto(graph, 20).name == "dphyp-kernel"
        assert select_auto(graph, 20, from_tree=True).name == "dphyp"


class TestOperatorTrees:
    def test_auto_tree_resolves_to_dphyp(self):
        tree = join_chain_tree(16)
        result = Optimizer(
            OptimizerConfig(algorithm="auto", exact_threshold=20)
        ).optimize(tree)
        assert result.algorithm == "dphyp"
        assert result.requested_algorithm == "auto"
        assert result.plan is not None

    def test_explicit_kernel_on_tree_is_an_error(self):
        tree = join_chain_tree(5)
        with pytest.raises(CapabilityError):
            Optimizer(
                OptimizerConfig(algorithm="dphyp-kernel")
            ).optimize(tree)


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
        kernel_cache, kernel_result, _ = self.run_cached(
            "dphyp-kernel", query
        )
        dphyp_cache, dphyp_result, _ = self.run_cached("dphyp", query)
        (kernel_key, kernel_entry), = kernel_cache.snapshot_entries()
        (dphyp_key, dphyp_entry), = dphyp_cache.snapshot_entries()
        # the registration fingerprint keeps the keys apart ...
        assert kernel_key != dphyp_key
        # ... while plans, recipes and costs are interchangeable
        assert kernel_entry.recipe == dphyp_entry.recipe
        assert kernel_entry.cost == dphyp_entry.cost
        assert kernel_entry.structure == dphyp_entry.structure
        assert kernel_result.plan.cost == dphyp_result.plan.cost

    def test_kernel_replay_hit_is_identical(self):
        query = generators.chain(12)
        _, first, second = self.run_cached("dphyp-kernel", query)
        assert first.stats.extra["plan_cache"]["event"] == "miss"
        assert second.stats.extra["plan_cache"]["event"] == "hit"
        assert second.plan.cost == first.plan.cost
        assert second.plan.cardinality == first.plan.cardinality
