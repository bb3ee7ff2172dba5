"""Tests for the ablation knobs (neighborhood minimization)."""

import pytest

from repro.core import exhaustive
from repro.core.kernel import DPhyp
from repro.core.plans import JoinPlanBuilder
from repro.workloads.random_queries import random_hypergraph_query


class TestSubsumptionAblation:
    @pytest.mark.parametrize("seed", range(10))
    def test_results_identical_without_minimization(self, seed):
        query = random_hypergraph_query(
            7, seed, n_hyperedges=4, max_hypernode=4, n_islands=2,
            flex_probability=0.3,
        )
        fast = DPhyp(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        plan_fast = fast.run()
        slow = DPhyp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities),
            minimize_neighborhoods=False,
        )
        plan_slow = slow.run()
        assert (plan_fast is None) == (plan_slow is None)
        if plan_fast is not None:
            assert plan_fast.cost == pytest.approx(plan_slow.cost)
        # both still emit exactly the oracle ccps — the minimization is
        # work-saving, never correctness-bearing
        oracle = exhaustive.count_csg_cmp_pairs(query.graph)
        assert fast.stats.ccp_emitted == oracle
        assert slow.stats.ccp_emitted == oracle

    def test_minimization_never_does_more_work(self):
        total_fast = total_slow = 0
        for seed in range(15):
            query = random_hypergraph_query(
                8, seed, n_hyperedges=6, max_hypernode=4, n_islands=3
            )
            fast = DPhyp(
                query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
            )
            fast.run()
            slow = DPhyp(
                query.graph,
                JoinPlanBuilder(query.graph, query.cardinalities),
                minimize_neighborhoods=False,
            )
            slow.run()
            total_fast += fast.stats.neighborhood_calls
            total_slow += slow.stats.neighborhood_calls
        assert total_fast <= total_slow
