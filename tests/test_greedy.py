"""Tests for the GOO greedy heuristic."""

import pytest

from repro.algebra.hyperedges import compile_tree
from repro.algebra.optree import normalize_commutative_children
from repro.algebra.reorder import OperatorPlanBuilder
from repro.algebra.tes_filter import TesFilterPlanBuilder, compile_tree_ses
from repro.core.kernel import solve_dphyp
from repro.core.greedy import solve_greedy
from repro.core.hypergraph import Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, clique, cycle, star
from repro.workloads.generators import Query
from repro.workloads.hyper import cycle_hypergraph, star_hypergraph
from repro.workloads.random_queries import random_simple_query
from repro.workloads.random_trees import random_operator_tree


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


def all_pairs_goo(graph, builder):
    """Reference GOO: re-probe and re-cost every fragment pair each
    round, as the solver did before it kept a candidate dict."""
    fragments = [builder.leaf(node) for node in range(graph.n_nodes)]
    while len(fragments) > 1:
        best_pair = None
        best_plan = None
        for i in range(len(fragments)):
            for j in range(i + 1, len(fragments)):
                p1, p2 = fragments[i], fragments[j]
                if not graph.has_connecting_edge(p1.nodes, p2.nodes):
                    continue
                edges = graph.connecting_edges(p1.nodes, p2.nodes)
                candidates = builder.join_unordered(p1, p2, edges)
                if not candidates:
                    continue
                candidate = min(candidates, key=lambda plan: plan.cost)
                smaller = (
                    best_plan is None
                    or candidate.cardinality < best_plan.cardinality
                    or (
                        candidate.cardinality == best_plan.cardinality
                        and candidate.nodes < best_plan.nodes
                    )
                )
                if smaller:
                    best_plan = candidate
                    best_pair = (i, j)
        if best_plan is None:
            return None
        i, j = best_pair
        fragments.pop(j)
        fragments.pop(i)
        fragments.append(best_plan)
    return fragments[0]


def assert_same_tree(plan, expected):
    """Identical oriented trees: shape, sides, operator, floats, and
    every join's edges as the very same ``Hyperedge`` objects."""
    assert plan.nodes == expected.nodes
    assert plan.operator == expected.operator
    assert plan.cardinality == expected.cardinality
    assert plan.cost == expected.cost
    assert len(plan.edges) == len(expected.edges)
    assert all(a is b for a, b in zip(plan.edges, expected.edges))
    assert plan.is_leaf == expected.is_leaf
    if not plan.is_leaf:
        assert_same_tree(plan.left, expected.left)
        assert_same_tree(plan.right, expected.right)


def assert_matches_reference(query):
    graph, cards = query.graph, query.cardinalities
    plan = solve_greedy(graph, JoinPlanBuilder(graph, cards))
    assert_same_tree(plan, all_pairs_goo(graph, JoinPlanBuilder(graph, cards)))


def uniform_chain(n):
    """Chain with equal cardinalities and selectivities: every
    adjacent pair ties on cardinality, so the node-set rule decides."""
    graph = Hypergraph(n_nodes=n)
    for i in range(n - 1):
        graph.add_simple_edge(i, i + 1, selectivity=0.1)
    return Query(graph, [10.0] * n, f"uniform-chain-{n}")


class TestMatchesAllPairsReference:
    @pytest.mark.parametrize("n", range(3, 31))
    def test_chain_cycle_star(self, n):
        for seed in range(2):
            assert_matches_reference(chain(n, seed=seed))
            assert_matches_reference(cycle(n, seed=seed))
            assert_matches_reference(star(n - 1, seed=seed))

    @pytest.mark.parametrize("n", range(4, 13))
    def test_clique(self, n):
        assert_matches_reference(clique(n, seed=n))

    @pytest.mark.parametrize("n", range(8, 19))
    def test_random_simple_queries(self, n):
        for seed in range(6):
            assert_matches_reference(
                random_simple_query(n, seed, extra_edge_probability=0.3)
            )

    @pytest.mark.parametrize("splits", range(0, 4))
    def test_hypergraphs(self, splits):
        for seed in range(3):
            assert_matches_reference(cycle_hypergraph(8, splits, seed=seed))
            assert_matches_reference(star_hypergraph(8, splits, seed=seed))

    @pytest.mark.parametrize("n", [3, 4, 7, 16, 20])
    def test_uniform_chain_ties(self, n):
        assert_matches_reference(uniform_chain(n))

    @pytest.mark.parametrize("mode", ["hyperedges", "tes-filter"])
    @pytest.mark.parametrize("n", [4, 6, 9, 12])
    def test_operator_trees(self, mode, n):
        for seed in range(10):
            tree = normalize_commutative_children(
                random_operator_tree(n, seed, table_function_probability=0.2)
            )
            if mode == "hyperedges":
                compiled = compile_tree(tree)
                builders = [OperatorPlanBuilder(compiled) for _ in range(2)]
            else:
                compiled, requirements = compile_tree_ses(tree)
                builders = [
                    TesFilterPlanBuilder(compiled, requirements)
                    for _ in range(2)
                ]
            plan = solve_greedy(compiled.graph, builders[0])
            expected = all_pairs_goo(compiled.graph, builders[1])
            if expected is None:
                assert plan is None
            else:
                assert_same_tree(plan, expected)


class TestWorkBound:
    @pytest.mark.parametrize("shape", [chain, cycle])
    @pytest.mark.parametrize("n", [16, 20, 30])
    def test_chain_and_cycle_cost_linearly_many_pairs(self, shape, n):
        """Each connected pair is costed once: on chains and cycles a
        merge leaves at most two new pairs, so the count is O(n), not
        the O(n²) of re-costing every pair each round."""
        query = shape(n)
        stats = SearchStats()
        builder = JoinPlanBuilder(query.graph, query.cardinalities, stats=stats)
        solve_greedy(query.graph, builder, stats)
        assert stats.ccp_emitted <= 3 * n
        assert stats.pairs_considered == stats.ccp_emitted
        assert stats.cost_calls == 2 * stats.ccp_emitted
