"""Tests for the DPsub baseline."""

import pytest

from repro.core.kernel import solve_dphyp
from repro.core.dpsub import solve_dpsub
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, clique, cycle, star
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
            lambda: chain(6, seed=2),
            lambda: cycle(6, seed=2),
            lambda: star(5, seed=2),
            lambda: clique(5, seed=2),
            lambda: cycle_hypergraph(6, 0, seed=2),
            lambda: star_hypergraph(4, 0, seed=2),
        ],
    )
    def test_matches_dphyp_cost(self, query_factory):
        query = query_factory()
        plan_sub, _ = optimum(solve_dpsub, query.graph, query.cardinalities)
        plan_hyp, _ = optimum(solve_dphyp, query.graph, query.cardinalities)
        assert plan_sub.cost == pytest.approx(plan_hyp.cost)

    @pytest.mark.parametrize("seed", range(8))
    def test_random_hypergraphs_with_flex(self, seed):
        query = random_hypergraph_query(
            6, seed, n_hyperedges=2, flex_probability=0.4
        )
        plan_sub, _ = optimum(solve_dpsub, query.graph, query.cardinalities)
        plan_hyp, _ = optimum(solve_dphyp, query.graph, query.cardinalities)
        assert (plan_sub is None) == (plan_hyp is None)
        if plan_sub is not None:
            assert plan_sub.cost == pytest.approx(plan_hyp.cost)


class TestComplexityCounters:
    def test_pairs_considered_is_subset_budget(self):
        """DPsub probes every split of every subset: ~3^n/2 pairs for a
        clique; ccps survive only when both halves connect."""
        query = clique(5, seed=0)
        _, stats = optimum(solve_dpsub, query.graph, query.cardinalities)
        n = query.graph.n_nodes
        expected_pairs = sum(
            2 ** (bin(s).count("1") - 1) - 1
            for s in range(1, 2 ** n)
            if bin(s).count("1") >= 2
        )
        assert stats.pairs_considered == expected_pairs

    def test_sparse_graph_wastes_probes(self):
        """On a chain, almost all DPsub probes fail — the paper's
        reason DPsub collapses on large sparse queries."""
        query = chain(8, seed=0)
        _, stats = optimum(solve_dpsub, query.graph, query.cardinalities)
        assert stats.ccp_emitted < stats.pairs_considered / 10


class TestEdgeCases:
    def test_single_relation(self):
        graph = Hypergraph(n_nodes=1)
        plan, _ = optimum(solve_dpsub, graph, [3.0])
        assert plan.is_leaf

    def test_two_disconnected(self):
        graph = Hypergraph(n_nodes=2)
        plan, _ = optimum(solve_dpsub, graph, [1.0, 2.0])
        assert plan is None
