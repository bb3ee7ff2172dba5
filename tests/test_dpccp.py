"""Tests for DPccp and its exact agreement with DPhyp on simple graphs."""

import pytest

from repro.core.dpccp import DPccp, solve_dpccp
from repro.core.kernel import solve_dphyp
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, clique, cycle, star
from repro.workloads.random_queries import random_simple_query


class TestRestrictions:
    def test_rejects_hypergraphs(self, fig2_graph):
        with pytest.raises(ValueError):
            DPccp(fig2_graph, JoinPlanBuilder(fig2_graph, [1.0] * 6))


class TestAgreementWithDPhyp:
    """Section 4.4: DPhyp behaves exactly like DPccp on regular graphs."""

    @pytest.mark.parametrize(
        "query_factory",
        [
            lambda: chain(6, seed=3),
            lambda: cycle(6, seed=3),
            lambda: star(5, seed=3),
            lambda: clique(5, seed=3),
        ],
    )
    def test_same_ccp_count_and_cost(self, query_factory):
        query = query_factory()
        stats_ccp, stats_hyp = SearchStats(), SearchStats()
        plan_ccp = solve_dpccp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats_ccp),
            stats_ccp,
        )
        plan_hyp = solve_dphyp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats_hyp),
            stats_hyp,
        )
        assert stats_ccp.ccp_emitted == stats_hyp.ccp_emitted
        assert plan_ccp.cost == pytest.approx(plan_hyp.cost)
        assert plan_ccp.render() == plan_hyp.render()

    @pytest.mark.parametrize("seed", range(10))
    def test_random_simple_graphs(self, seed):
        query = random_simple_query(6, seed)
        stats_ccp, stats_hyp = SearchStats(), SearchStats()
        plan_ccp = solve_dpccp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats_ccp),
            stats_ccp,
        )
        plan_hyp = solve_dphyp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats_hyp),
            stats_hyp,
        )
        assert stats_ccp.ccp_emitted == stats_hyp.ccp_emitted
        assert plan_ccp.cost == pytest.approx(plan_hyp.cost)


class TestBasics:
    def test_single_relation(self):
        graph = Hypergraph(n_nodes=1)
        plan = solve_dpccp(graph, JoinPlanBuilder(graph, [7.0]))
        assert plan is not None and plan.is_leaf

    def test_disconnected(self):
        graph = Hypergraph(n_nodes=3)
        graph.add_simple_edge(0, 1)
        assert solve_dpccp(graph, JoinPlanBuilder(graph, [1.0] * 3)) is None
