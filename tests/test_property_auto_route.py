"""Property-based route equivalence for ``algorithm="auto"``.

``auto`` sends every exact query — simple graph, hypergraph or
operator tree — to ``dphyp``.  These properties pin, for random
queries of 2..12 relations, that the default optimizer reports
``dphyp``, that its cost equals an explicit ``dphyp`` run's bit for
bit, and that it matches the seed-faithful recursive DPhyp oracle.
"""

import math

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.optimizer import Optimizer
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)
from repro.workloads.random_trees import random_operator_tree

COMMON = dict(
    deadline=None, suppress_health_check=[HealthCheck.too_slow], max_examples=30
)


@st.composite
def simple_queries(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    # dense 12-relation graphs make the recursive oracle slow; the
    # flat offer's own equivalence suite covers density at smaller sizes
    extra = draw(st.sampled_from([0.0, 0.15] if n > 8 else [0.0, 0.3, 0.8]))
    return random_simple_query(n, seed, extra_edge_probability=extra)


@st.composite
def hypergraph_queries(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_hypergraph_query(
        n,
        seed,
        n_hyperedges=draw(st.integers(min_value=1, max_value=3)),
        n_islands=draw(st.integers(min_value=1, max_value=2)),
        flex_probability=draw(st.sampled_from([0.0, 0.3, 0.7])),
    )


def assert_kernel_route(query):
    result = Optimizer().optimize(query)
    assert result.algorithm == "dphyp"
    assert result.requested_algorithm == "auto"
    dphyp = Optimizer(algorithm="dphyp").optimize(query)
    oracle = Optimizer(algorithm="dphyp-recursive").optimize(query)
    if result.plan is None:
        assert dphyp.plan is None and oracle.plan is None
        return
    assert result.cost == dphyp.cost
    assert result.cardinality == dphyp.cardinality
    assert math.isclose(result.cost, oracle.cost, rel_tol=1e-9)
    assert result.stats.ccp_emitted == dphyp.stats.ccp_emitted


class TestAutoRoutesToKernel:
    @given(query=simple_queries())
    @settings(**COMMON)
    def test_simple_graphs(self, query):
        assert query.graph.is_simple
        assert_kernel_route(query)

    @given(query=hypergraph_queries())
    @settings(**COMMON)
    def test_hypergraphs(self, query):
        assert_kernel_route(query)

    @given(
        n=st.integers(min_value=2, max_value=8),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    @settings(**COMMON)
    def test_operator_trees_keep_dphyp(self, n, seed):
        tree = random_operator_tree(n, seed)
        result = Optimizer().optimize(tree)
        assert result.algorithm == "dphyp"
        assert result.requested_algorithm == "auto"
