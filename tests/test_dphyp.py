"""Tests for DPhyp — exact ccp enumeration and optimality."""

import pytest

from repro.core import bitset, exhaustive
from repro.core.kernel import DPhyp, solve_dphyp
from repro.core.dpsub import solve_dpsub
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, clique, cycle, star
from repro.workloads.random_queries import random_hypergraph_query


def run_dphyp(graph, cards):
    stats = SearchStats()
    builder = JoinPlanBuilder(graph, cards, stats=stats)
    plan = solve_dphyp(graph, builder, stats)
    return plan, stats


class TestSingleRelation:
    def test_trivial_query(self):
        graph = Hypergraph(n_nodes=1)
        plan, stats = run_dphyp(graph, [42.0])
        assert plan is not None
        assert plan.is_leaf
        assert plan.cardinality == 42.0
        assert stats.ccp_emitted == 0


class TestTwoRelations:
    def test_single_join(self):
        graph = Hypergraph(n_nodes=2)
        graph.add_simple_edge(0, 1, selectivity=0.1)
        plan, stats = run_dphyp(graph, [10.0, 20.0])
        assert stats.ccp_emitted == 1
        assert plan.cardinality == pytest.approx(20.0)
        assert plan.cost == pytest.approx(20.0)  # C_out

    def test_disconnected_returns_none(self):
        graph = Hypergraph(n_nodes=2)
        plan, stats = run_dphyp(graph, [10.0, 20.0])
        assert plan is None
        assert stats.ccp_emitted == 0


class TestFig2:
    def test_emits_exactly_the_oracle_ccps(self, fig2_graph, fig2_cardinalities):
        plan, stats = run_dphyp(fig2_graph, fig2_cardinalities)
        assert plan is not None
        assert stats.ccp_emitted == exhaustive.count_csg_cmp_pairs(fig2_graph)

    def test_plan_covers_all_relations(self, fig2_graph, fig2_cardinalities):
        plan, _stats = run_dphyp(fig2_graph, fig2_cardinalities)
        assert plan.nodes == fig2_graph.all_nodes
        assert plan.count_joins() == 5

    def test_matches_dpsub_optimum(self, fig2_graph, fig2_cardinalities):
        plan, _ = run_dphyp(fig2_graph, fig2_cardinalities)
        reference = solve_dpsub(
            fig2_graph, JoinPlanBuilder(fig2_graph, fig2_cardinalities)
        )
        assert plan.cost == pytest.approx(reference.cost)

    def test_hyperedge_bridge_respected(self, fig2_graph, fig2_cardinalities):
        """Every plan node joining across the bridge must contain one
        full side of the hyperedge."""
        plan, _ = run_dphyp(fig2_graph, fig2_cardinalities)

        def check(node):
            if node.is_leaf:
                return
            left_half = bitset.set_of(0, 1, 2)
            right_half = bitset.set_of(3, 4, 5)
            crosses = (node.left.nodes & left_half and node.left.nodes & right_half) or (
                node.right.nodes & left_half and node.right.nodes & right_half
            ) or (node.left.nodes & left_half and node.right.nodes & right_half) or (
                node.left.nodes & right_half and node.right.nodes & left_half
            )
            if (node.left.nodes | node.right.nodes) == fig2_graph.all_nodes:
                # the bridging node: one side must hold a full hypernode
                assert (
                    bitset.is_subset(left_half, node.left.nodes)
                    or bitset.is_subset(left_half, node.right.nodes)
                )
            check(node.left)
            check(node.right)

        check(plan)


class TestClassicShapes:
    """Known closed-form ccp counts from [17] for simple graphs."""

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_chain_ccp_count(self, n):
        query = chain(n)
        _, stats = run_dphyp(query.graph, query.cardinalities)
        expected = (n ** 3 - n) // 6  # #ccp for chains
        assert stats.ccp_emitted == expected

    @pytest.mark.parametrize("n", [1, 2, 4, 7])
    def test_star_ccp_count(self, n):
        query = star(n)  # n satellites -> n+1 relations
        _, stats = run_dphyp(query.graph, query.cardinalities)
        expected = n * 2 ** (n - 1)  # #ccp for stars
        assert stats.ccp_emitted == expected

    @pytest.mark.parametrize("n", [3, 4, 6])
    def test_cycle_ccp_count(self, n):
        query = cycle(n)
        _, stats = run_dphyp(query.graph, query.cardinalities)
        expected = (n ** 3 - 2 * n ** 2 + n) // 2  # #ccp for cycles
        assert stats.ccp_emitted == expected

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_clique_ccp_count(self, n):
        query = clique(n)
        _, stats = run_dphyp(query.graph, query.cardinalities)
        expected = (3 ** n - 2 ** (n + 1) + 1) // 2  # #ccp for cliques
        assert stats.ccp_emitted == expected


class TestAgainstOracle:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_hypergraphs_exact_ccp(self, seed):
        query = random_hypergraph_query(
            6, seed, n_hyperedges=2, n_islands=2, flex_probability=0.25
        )
        _, stats = run_dphyp(query.graph, query.cardinalities)
        assert stats.ccp_emitted == exhaustive.count_csg_cmp_pairs(query.graph)

    @pytest.mark.parametrize("seed", range(12))
    def test_random_hypergraphs_optimal(self, seed):
        query = random_hypergraph_query(6, seed, n_hyperedges=2)
        plan, _ = run_dphyp(query.graph, query.cardinalities)
        reference = exhaustive.optimal_cost(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert plan is not None and reference is not None
        assert plan.cost == pytest.approx(reference)


class TestTableStats:
    def test_table_entries_counted(self, fig2_graph, fig2_cardinalities):
        _, stats = run_dphyp(fig2_graph, fig2_cardinalities)
        assert stats.table_entries == len(exhaustive.connected_sets(fig2_graph))

    def test_solver_object_exposes_table(self, fig2_graph, fig2_cardinalities):
        solver = DPhyp(
            fig2_graph, JoinPlanBuilder(fig2_graph, fig2_cardinalities)
        )
        plan = solver.run()
        assert plan is not None
        # the table is keyed by plan class: every connected set
        assert set(solver.table) == exhaustive.connected_sets(fig2_graph)
