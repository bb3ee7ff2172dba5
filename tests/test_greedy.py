"""Tests for the GOO greedy heuristic."""

import pytest

from repro.core.kernel import solve_dphyp
from repro.core.greedy import solve_greedy
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.workloads import chain, cycle, star
from repro.workloads.random_queries import random_simple_query


class TestBasics:
    def test_produces_full_plan(self):
        query = star(5, seed=5)
        plan = solve_greedy(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert plan is not None
        assert plan.nodes == query.graph.all_nodes

    def test_disconnected_returns_none(self):
        graph = Hypergraph(n_nodes=2)
        assert solve_greedy(graph, JoinPlanBuilder(graph, [1.0, 1.0])) is None

    def test_single_relation(self):
        graph = Hypergraph(n_nodes=1)
        plan = solve_greedy(graph, JoinPlanBuilder(graph, [2.0]))
        assert plan.is_leaf

    def test_zero_relations_return_none(self):
        """Regression: ``fragments[0]`` used to raise IndexError (see
        tests/test_degenerate.py for the cross-solver audit)."""
        graph = Hypergraph(n_nodes=1)
        graph.n_nodes = 0  # constructor forbids 0; emulate a bad caller
        assert solve_greedy(graph, JoinPlanBuilder(graph, [])) is None


class TestQuality:
    @pytest.mark.parametrize("seed", range(10))
    def test_never_beats_exact_dp(self, seed):
        """Greedy cost is an upper bound on the optimum — if it ever
        went below, the DP would be broken."""
        query = random_simple_query(7, seed)
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        greedy_plan = solve_greedy(query.graph, builder)
        optimal_plan = solve_dphyp(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert greedy_plan.cost >= optimal_plan.cost - 1e-9

    def test_sometimes_suboptimal(self):
        """There exists a query where greedy is strictly worse — the
        reason exact enumeration is worth its price."""
        found_gap = False
        for seed in range(40):
            query = random_simple_query(7, seed)
            greedy_plan = solve_greedy(
                query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
            )
            optimal_plan = solve_dphyp(
                query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
            )
            if greedy_plan.cost > optimal_plan.cost * 1.0001:
                found_gap = True
                break
        assert found_gap

    def test_deterministic(self):
        query = cycle(6, seed=9)
        builder1 = JoinPlanBuilder(query.graph, query.cardinalities)
        builder2 = JoinPlanBuilder(query.graph, query.cardinalities)
        plan1 = solve_greedy(query.graph, builder1)
        plan2 = solve_greedy(query.graph, builder2)
        assert plan1.render() == plan2.render()
