"""Tests for the DPsize baseline (Fig. 1 of the paper)."""

import pytest

from repro.core.kernel import solve_dphyp
from repro.core.dpsize import solve_dpsize
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, cycle, star
from repro.workloads.hyper import cycle_hypergraph, star_hypergraph
from repro.workloads.random_queries import random_hypergraph_query


def optimum(solver, graph, cards):
    stats = SearchStats()
    plan = solver(graph, JoinPlanBuilder(graph, cards, stats=stats), stats)
    return plan, stats


class TestCorrectness:
    @pytest.mark.parametrize(
        "query_factory",
        [
            lambda: chain(6, seed=1),
            lambda: cycle(6, seed=1),
            lambda: star(5, seed=1),
            lambda: cycle_hypergraph(6, 1, seed=1),
            lambda: star_hypergraph(4, 1, seed=1),
        ],
    )
    def test_matches_dphyp_cost(self, query_factory):
        query = query_factory()
        plan_size, _ = optimum(solve_dpsize, query.graph, query.cardinalities)
        plan_hyp, _ = optimum(solve_dphyp, query.graph, query.cardinalities)
        assert plan_size.cost == pytest.approx(plan_hyp.cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_hypergraphs(self, seed):
        query = random_hypergraph_query(6, seed, n_hyperedges=2, n_islands=2)
        plan_size, _ = optimum(solve_dpsize, query.graph, query.cardinalities)
        plan_hyp, _ = optimum(solve_dphyp, query.graph, query.cardinalities)
        assert (plan_size is None) == (plan_hyp is None)
        if plan_size is not None:
            assert plan_size.cost == pytest.approx(plan_hyp.cost)


class TestComplexityCounters:
    def test_considers_more_pairs_than_ccps(self):
        """The (*) tests of Fig. 1 fail far more often than they
        succeed — the core of the paper's complexity argument."""
        query = star(6, seed=1)
        _, stats_size = optimum(solve_dpsize, query.graph, query.cardinalities)
        _, stats_hyp = optimum(solve_dphyp, query.graph, query.cardinalities)
        assert stats_size.pairs_considered > 2 * stats_hyp.ccp_emitted
        # DPsize visits ordered pairs: exactly twice the unordered count
        assert stats_size.ccp_emitted == 2 * stats_hyp.ccp_emitted

    def test_chain_pairs_blow_up(self):
        small = chain(4, seed=0)
        large = chain(8, seed=0)
        _, stats_small = optimum(solve_dpsize, small.graph, small.cardinalities)
        _, stats_large = optimum(solve_dpsize, large.graph, large.cardinalities)
        assert stats_large.pairs_considered > stats_small.pairs_considered


class TestEdgeCases:
    def test_single_relation(self):
        graph = Hypergraph(n_nodes=1)
        plan, _ = optimum(solve_dpsize, graph, [3.0])
        assert plan.is_leaf

    def test_disconnected(self):
        graph = Hypergraph(n_nodes=2)
        plan, _ = optimum(solve_dpsize, graph, [1.0, 2.0])
        assert plan is None
