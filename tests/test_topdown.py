"""Tests for the top-down memoization baseline."""

import pytest

from repro.core.kernel import solve_dphyp
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.core.topdown import TopDownMemo, solve_topdown
from repro.workloads import chain, cycle, star
from repro.workloads.random_queries import random_hypergraph_query


class TestCorrectness:
    @pytest.mark.parametrize(
        "query_factory",
        [lambda: chain(6, seed=4), lambda: cycle(6, seed=4), lambda: star(5, seed=4)],
    )
    def test_matches_dphyp(self, query_factory):
        query = query_factory()
        plan_td = solve_topdown(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        plan_hyp = solve_dphyp(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert plan_td.cost == pytest.approx(plan_hyp.cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_hypergraphs(self, seed):
        query = random_hypergraph_query(6, seed, n_hyperedges=2, n_islands=2)
        plan_td = solve_topdown(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        plan_hyp = solve_dphyp(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert (plan_td is None) == (plan_hyp is None)
        if plan_td is not None:
            assert plan_td.cost == pytest.approx(plan_hyp.cost)


class TestMemoization:
    def test_memo_holds_unplannable_sets(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        solver = TopDownMemo(graph, JoinPlanBuilder(graph, [1.0] * 3))
        assert solver.run() is None
        assert solver.memo[graph.all_nodes] is None

    def test_generate_and_test_pays_failing_probes(self):
        """The memoization family needs tests similar to DPsize's —
        most probes fail on sparse graphs (Section 1)."""
        query = chain(8, seed=0)
        stats = SearchStats()
        solve_topdown(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats),
            stats,
        )
        assert stats.pairs_considered > 4 * stats.ccp_emitted


class TestEdgeCases:
    def test_single_relation(self):
        graph = Hypergraph(n_nodes=1)
        plan = solve_topdown(graph, JoinPlanBuilder(graph, [5.0]))
        assert plan.is_leaf
