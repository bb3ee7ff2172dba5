"""Property-based tests (hypothesis) for the enumeration core.

The invariants:

1. DPhyp emits exactly the brute-force set of csg-cmp-pairs — no
   duplicates, none missing — on arbitrary connected hypergraphs,
   including generalized (flex) edges.
2. All exact algorithms agree on the optimal cost.
3. The DP table holds exactly the Definition-3-connected sets.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import bitset, exhaustive
from repro.core.kernel import DPhyp
from repro.core.dpsize import solve_dpsize
from repro.core.dpsub import solve_dpsub
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.core.topdown import solve_topdown
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)


@st.composite
def hypergraph_queries(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_hyperedges = draw(st.integers(min_value=0, max_value=3))
    islands = draw(st.integers(min_value=1, max_value=3))
    flex = draw(st.sampled_from([0.0, 0.3, 0.7]))
    return random_hypergraph_query(
        n,
        seed,
        n_hyperedges=n_hyperedges,
        n_islands=islands,
        flex_probability=flex,
    )


@st.composite
def simple_queries(draw):
    n = draw(st.integers(min_value=2, max_value=7))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return random_simple_query(n, seed, extra_edge_probability=extra)


class TestCcpExactness:
    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_dphyp_emits_oracle_ccps_exactly_once(self, query):
        stats = SearchStats()
        solver = DPhyp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats),
            stats,
        )
        emitted: list[tuple[int, int]] = []
        traverse = solver.traverse

        def recording_traverse(offer):
            def recording(s1, s2):
                emitted.append((s1, s2) if s1 < s2 else (s2, s1))
                offer(s1, s2)

            traverse(recording)

        solver.traverse = recording_traverse
        solver.run()
        oracle = {
            (s1, s2) if s1 < s2 else (s2, s1)
            for s1, s2 in exhaustive.csg_cmp_pairs(query.graph)
        }
        assert len(emitted) == len(set(emitted)), "duplicate ccp emitted"
        assert set(emitted) == oracle

    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_table_holds_connected_sets(self, query):
        stats = SearchStats()
        solver = DPhyp(
            query.graph,
            JoinPlanBuilder(query.graph, query.cardinalities, stats=stats),
            stats,
        )
        solver.run()
        assert set(solver.table) == exhaustive.connected_sets(
            query.graph
        )


class TestOptimalAgreement:
    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_all_algorithms_same_optimum(self, query):
        costs = {}
        for name, solver in (
            ("dphyp", lambda g, b: DPhyp(g, b).run()),
            ("dpsize", solve_dpsize),
            ("dpsub", solve_dpsub),
            ("topdown", solve_topdown),
        ):
            builder = JoinPlanBuilder(query.graph, query.cardinalities)
            plan = solver(query.graph, builder)
            costs[name] = None if plan is None else plan.cost
        reference = costs.pop("dphyp")
        for name, cost in costs.items():
            if reference is None:
                assert cost is None, name
            else:
                assert cost == pytest.approx(reference), name

    @given(query=simple_queries())
    @settings(**COMMON)
    def test_matches_exhaustive_on_simple_graphs(self, query):
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        plan = DPhyp(query.graph, builder).run()
        reference = exhaustive.optimal_cost(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert plan is not None and reference is not None
        assert plan.cost == pytest.approx(reference)


class TestPlanWellFormedness:
    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_plans_partition_relations(self, query):
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        plan = DPhyp(query.graph, builder).run()
        if plan is None:
            return

        def check(node):
            if node.is_leaf:
                assert bitset.count(node.nodes) == 1
                return
            assert node.left.nodes & node.right.nodes == 0
            assert node.left.nodes | node.right.nodes == node.nodes
            # no cross products: some edge connects the two sides
            assert query.graph.has_connecting_edge(
                node.left.nodes, node.right.nodes
            )
            check(node.left)
            check(node.right)

        check(plan)

    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_cost_is_sum_of_cardinalities(self, query):
        """C_out structural identity: plan cost equals the sum of the
        cardinalities of all its join nodes."""
        builder = JoinPlanBuilder(query.graph, query.cardinalities)
        plan = DPhyp(query.graph, builder).run()
        if plan is None:
            return

        def total(node):
            if node.is_leaf:
                return 0.0
            return node.cardinality + total(node.left) + total(node.right)

        assert plan.cost == pytest.approx(total(plan))
