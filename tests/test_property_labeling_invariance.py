"""Property: plan floats are a function of the query, not its labeling.

A relabeled copy of a query (nodes permuted, edge list shuffled, each
hyperedge's sides swapped) is the same query, so every float the
optimizer derives for it must be *bit for bit* the float derived for
the original:

* both cold runs (``cache="off"``) find the same optimal
  ``(cardinality, cost)``, and every node of the original's plan,
  priced again in the copy's labeling, carries the same floats;
* the set-cardinality estimator agrees on every connected set mapped
  through the isomorphism;
* a cache hit served to the copy carries the optimum a cold run of the
  copy finds, and every served node equals a from-scratch pricing of
  the served tree through the copy's own builder.

Plans are compared through a re-pricing rather than tree against tree:
once intermediate costs are absorbed by a much larger root
cardinality, several join trees share the optimal cost bit for bit,
and which of them the enumeration meets first depends on the labeling.

The plan cache stores per-join floats in its recipes and serves them
to every isomorphic requester, so this property is what makes a served
cost independent of which labeling happened to populate the cache.
"""

import random

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import bitset
from repro.core.hypergraph import Hyperedge, Hypergraph
from repro.core.plans import JoinPlanBuilder
from repro.cost.cardinality import SetCardinalityEstimator
from repro.optimizer import Optimizer
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)

SETTINGS = dict(
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
    max_examples=60,
)


@st.composite
def queries(draw):
    """``(graph, cardinalities)`` with non-integral float statistics.

    Integral cardinalities multiply exactly up to 2**53, which would
    hide rounding-order effects on small queries; uniform floats make
    every product round.
    """
    n = draw(st.integers(min_value=2, max_value=12))
    seed = draw(st.integers(min_value=0, max_value=100_000))
    if draw(st.booleans()):
        extra = draw(st.sampled_from([0.0, 0.3, 0.7]))
        query = random_simple_query(n, seed, extra_edge_probability=extra)
    else:
        query = random_hypergraph_query(
            n,
            seed,
            n_hyperedges=draw(st.integers(min_value=0, max_value=3)),
            n_islands=draw(st.integers(min_value=1, max_value=2)),
            flex_probability=draw(st.sampled_from([0.0, 0.5])),
        )
    rng = random.Random(seed)
    cards = [rng.uniform(1.0, 1e5) for _ in range(n)]
    return query.graph, cards


def relabel(graph, cards, seed):
    """Isomorphic copy: permuted nodes, shuffled edges, swapped sides.

    Returns ``(copy graph, copy cardinalities, perm)`` with
    ``perm[original node] == copy node``.
    """
    rng = random.Random(seed)
    n = graph.n_nodes
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [
        Hyperedge(
            left=bitset.permute(edge.right, perm),
            right=bitset.permute(edge.left, perm),
            flex=bitset.permute(edge.flex, perm),
            selectivity=edge.selectivity,
        )
        for edge in graph.edges
    ]
    rng.shuffle(edges)
    copy_cards = [0.0] * n
    for node, card in enumerate(cards):
        copy_cards[perm[node]] = card
    return Hypergraph(n_nodes=n, edges=edges), copy_cards, perm


def node_floats(plan):
    """``[(cardinality, cost)]`` of every plan node, in preorder."""
    floats = []
    stack = [plan]
    while stack:
        node = stack.pop()
        floats.append((node.cardinality, node.cost))
        if not node.is_leaf:
            stack.extend((node.right, node.left))
    return floats


def reprice(plan, graph, cards, perm):
    """The join tree of ``plan`` mapped through ``perm`` and priced from
    scratch by a fresh builder for ``(graph, cards)``."""
    builder = JoinPlanBuilder(graph, cards)

    def build(node):
        if node.is_leaf:
            return builder.leaf(perm[bitset.min_node(node.nodes)])
        left, right = build(node.left), build(node.right)
        edges = graph.connecting_edges(left.nodes, right.nodes)
        return builder.join_ordered(left, right, edges)[0]

    return build(plan)


def cold(graph, cards):
    return Optimizer(cache="off").optimize(graph, cards).plan


@given(query=queries(), relabel_seed=st.integers(0, 1_000))
@settings(**SETTINGS)
def test_cold_runs_agree_through_the_isomorphism(query, relabel_seed):
    graph, cards = query
    copy_graph, copy_cards, perm = relabel(graph, cards, relabel_seed)
    original = cold(graph, cards)
    copy = cold(copy_graph, copy_cards)
    assert original is not None and copy is not None
    # bit for bit, not approx
    assert (copy.cardinality, copy.cost) == (
        original.cardinality, original.cost
    )
    assert node_floats(
        reprice(original, copy_graph, copy_cards, perm)
    ) == node_floats(original)

    estimator = SetCardinalityEstimator(graph, cards)
    copy_estimator = SetCardinalityEstimator(copy_graph, copy_cards)
    for s in range(1, 1 << graph.n_nodes):
        if graph.is_connected_set(s):
            assert estimator.cardinality(s) == copy_estimator.cardinality(
                bitset.permute(s, perm)
            )


@given(query=queries(), relabel_seed=st.integers(0, 1_000))
@settings(**SETTINGS)
def test_served_hit_carries_the_requesters_cold_floats(query, relabel_seed):
    graph, cards = query
    copy_graph, copy_cards, _perm = relabel(graph, cards, relabel_seed)
    optimizer = Optimizer(cache="on")
    optimizer.optimize(graph, cards)
    served = optimizer.optimize(copy_graph, copy_cards)
    assert served.stats.extra["plan_cache"]["event"] == "hit"
    copy = cold(copy_graph, copy_cards)
    assert (served.plan.cardinality, served.plan.cost) == (
        copy.cardinality, copy.cost
    )
    identity = range(copy_graph.n_nodes)
    assert node_floats(served.plan) == node_floats(
        reprice(served.plan, copy_graph, copy_cards, identity)
    )
