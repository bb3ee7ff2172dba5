"""Property-based equivalence: ``dphyp`` vs ``dphyp-recursive``.

DPhyp's flat-array offer is not "approximately the same plan" as the
recursive oracle — it is the *same* search (identical csg-cmp-pairs)
pricing the *same* candidates with bit-identical float arithmetic,
differing only in data layout.  These tests pin that contract on
random hypergraphs:

* exact ``cost`` / ``cardinality`` / join-order equality against the
  seed-faithful ``dphyp-recursive``, across every shipped cost model
  (including ``MinOfModel``, which exercises the generic proxy path);
* ``SearchStats`` parity — ``ccp_emitted``, ``table_entries`` and
  ``cost_calls`` must match, or DPhyp explored a different space;
* the flat offer reads set cardinalities from the builder's estimator,
  which agrees bit-for-bit with the spelled-out "base product, then
  every spanned edge's selectivity" reference, both multiplied in
  ascending value order.
"""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.dphyp_recursive import solve_dphyp_recursive
from repro.core import bitset
from repro.core.kernel import solve_dphyp
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.cost.cardinality import SetCardinalityEstimator
from repro.cost.models import (
    CoutModel,
    HashJoinModel,
    MinOfModel,
    NestedLoopModel,
    SortMergeModel,
)
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=40
)

MODELS = [
    CoutModel,
    NestedLoopModel,
    HashJoinModel,
    SortMergeModel,
    lambda: MinOfModel([HashJoinModel(), SortMergeModel()]),
]


@st.composite
def hypergraph_queries(draw):
    n = draw(st.integers(min_value=2, max_value=8))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    n_hyperedges = draw(st.integers(min_value=0, max_value=3))
    islands = draw(st.integers(min_value=1, max_value=2))
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
    n = draw(st.integers(min_value=2, max_value=9))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    extra = draw(st.sampled_from([0.0, 0.3, 0.8]))
    return random_simple_query(n, seed, extra_edge_probability=extra)


def solve(solver, query, make_model=CoutModel):
    stats = SearchStats()
    builder = JoinPlanBuilder(
        query.graph,
        query.cardinalities,
        cost_model=make_model(),
        stats=stats,
    )
    plan = solver(query.graph, builder, stats)
    return plan, stats


def join_order(plan):
    if plan is None:
        return None
    if plan.is_leaf:
        return plan.nodes
    return (join_order(plan.left), join_order(plan.right))


def assert_equivalent(query, make_model=CoutModel):
    plan, stats = solve(solve_dphyp, query, make_model)
    oracle_plan, oracle_stats = solve(
        solve_dphyp_recursive, query, make_model
    )
    if oracle_plan is None:
        assert plan is None
        return
    assert plan is not None
    # bit-identical, not approx: the flat offer replays the same floats
    assert plan.cost == oracle_plan.cost
    assert plan.cardinality == oracle_plan.cardinality
    assert join_order(plan) == join_order(oracle_plan)
    assert stats.ccp_emitted == oracle_stats.ccp_emitted
    assert stats.table_entries == oracle_stats.table_entries
    assert stats.cost_calls == oracle_stats.cost_calls


class TestKernelEquivalence:
    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_hypergraphs_cout(self, query):
        assert_equivalent(query)

    @given(query=simple_queries())
    @settings(**COMMON)
    def test_simple_graphs_cout(self, query):
        assert_equivalent(query)

    @given(
        query=simple_queries(),
        model_index=st.integers(min_value=0, max_value=len(MODELS) - 1),
    )
    @settings(**COMMON)
    def test_simple_graphs_all_models(self, query, model_index):
        assert_equivalent(query, MODELS[model_index])

    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_hypergraphs_sort_merge(self, query):
        # the one shipped model whose two join orders price
        # differently in float arithmetic — the flat offer must try both
        assert_equivalent(query, SortMergeModel)


def spans_reference(graph, base, s):
    """Set cardinality spelled out over ``Hyperedge.spans``, in the
    estimator's labeling-invariant operand order: base cardinalities
    by ascending value, then spanned selectivities by ascending
    value."""
    card = 1.0
    for value in sorted(base[node] for node in bitset.iter_nodes(s)):
        card *= value
    for selectivity in sorted(
        edge.selectivity for edge in graph.edges if edge.spans(s)
    ):
        card *= selectivity
    return max(card, 1.0)


class TestSharedCardinality:
    """One set-cardinality routine behind the estimator and DPhyp."""

    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_kernel_cardinalities_are_the_estimators(self, query):
        graph = query.graph
        builder = JoinPlanBuilder(graph, query.cardinalities)
        solve_dphyp(graph, builder, SearchStats())
        base = [float(c) for c in query.cardinalities]
        assert builder.estimator.memo
        for s, card in builder.estimator.memo.items():
            assert card == spans_reference(graph, base, s)

    @given(query=simple_queries())
    @settings(**COMMON)
    def test_estimator_matches_spans_reference(self, query):
        graph = query.graph
        base = [float(c) for c in query.cardinalities]
        estimator = SetCardinalityEstimator(graph, base)
        for s in range(1, 1 << graph.n_nodes):
            assert estimator.cardinality(s) == spans_reference(
                graph, base, s
            )
