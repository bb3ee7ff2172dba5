"""Plan recipes: cache-portable join trees and their replay.

A cached plan cannot be a :class:`~repro.core.plans.Plan` object — the
plan holds the *entry creator's* hyperedges, payloads, and node
bitmaps, which are wrong for an isomorphic requester with different
names or node order.  Instead the cache stores a **recipe**: the join
tree as nested tuples over *canonical* node ranks, preserving the
left/right orientation the enumeration chose (asymmetric cost models
price build and probe sides differently):

* a leaf is a canonical rank (``int``);
* a join is ``(left_recipe, right_recipe, cardinality, cost)`` — the
  join's own floats ride along.

Replay maps each rank back through the requester's inverse canonical
permutation and rebuilds the plan bottom-up: leaves through the
requester's builder, joins from the stored floats and the requester's
own ``connecting_edges`` (so edges and payloads are the requester's).
It calls neither the cardinality estimator nor the cost model's
``join_cost``, so a hit costs O(plan size) lookups.

Serving stored floats to a *different* labeling is exact because the
cache key pins every cardinality, selectivity, the cost model and the
config, and :class:`~repro.cost.cardinality.SetCardinalityEstimator`
multiplies in value order, not index order: every relabeling of a
query computes the very same floats for corresponding plan nodes, bit
for bit.  The recipe therefore equals what the requester's own builder
would compute for that join order.

A miss enumerates the query's **canonical problem**
(:func:`canonical_problem`), which every labeling of the query shares,
so the recipe is the same whichever labeling computes it, and the miss
is served by replaying it exactly like a hit.

Thread-safety: all three functions are pure; replay only *reads* the
graph and builds fresh :class:`Plan` objects, so concurrent replays
against one graph are safe.

Pickle-safety: a recipe is nested tuples of ints and floats, so it
pickles and round-trips through JSON and ``repr`` (while every float
is finite; :func:`repro.cache.persist.serialize_entry` keeps the rest
out of persistence).  That is why recipes, not plans, are written to
disk and sent back by process-pool workers; widening
:data:`PlanRecipe` beyond plain literals must keep
:mod:`repro.cache.persist` and the process-pool protocol in sync.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..core import bitset
from ..core.hypergraph import Hyperedge, Hypergraph
from ..core.plans import Plan, PlanBuilder

#: leaf = canonical node rank; join = (left, right, cardinality, cost)
PlanRecipe = Union[int, tuple]


def plan_recipe(plan: Plan, permutation: Sequence[int]) -> PlanRecipe:
    """Extract the canonical-space join tree of ``plan`` with its floats.

    ``permutation`` maps the plan's own node indices to canonical
    ranks (from the query's :class:`~repro.core.canonical.CanonicalForm`).
    """
    if plan.is_leaf:
        return permutation[bitset.min_node(plan.nodes)]
    return (
        plan_recipe(plan.left, permutation),
        plan_recipe(plan.right, permutation),
        plan.cardinality,
        plan.cost,
    )


def canonical_problem(
    graph: Hypergraph,
    cardinalities: Sequence[float],
    permutation: Sequence[int],
) -> "tuple[Hypergraph, list[float]]":
    """The query relabeled by ``permutation`` (node -> canonical rank).

    Each edge's sides go in a fixed order and the edges are sorted, as
    a relabeling may also list them in another order; payloads and
    names, which no cost depends on, are dropped.  Every labeling with
    one canonical key thus yields the very same problem.
    """
    edges = []
    for edge in graph.edges:
        left = bitset.permute(edge.left, permutation)
        right = bitset.permute(edge.right, permutation)
        flex = bitset.permute(edge.flex, permutation)
        edges.append((min(left, right), max(left, right), flex,
                      edge.selectivity))
    edges.sort()
    ranked = [0.0] * graph.n_nodes
    for node, rank in enumerate(permutation):
        ranked[rank] = float(cardinalities[node])
    return Hypergraph(graph.n_nodes, [
        Hyperedge(left, right, flex, selectivity)
        for left, right, flex, selectivity in edges
    ]), ranked


def replay_recipe(
    recipe: PlanRecipe,
    inverse: Sequence[int],
    graph: Hypergraph,
    builder: PlanBuilder,
) -> Plan:
    """Rebuild a plan from a recipe for a (possibly relabeled) query.

    ``inverse`` maps canonical ranks back to the requester's node
    indices.  Leaves come from the requester's builder; each join
    takes its cardinality and cost from the recipe and re-derives its
    connecting edges from the requester's graph, so payloads and
    selectivities are the requester's own.  Joins are inner joins
    (operator ``"join"``): only queries planned through the default
    :class:`~repro.core.plans.JoinPlanBuilder` are cacheable.  A
    malformed recipe raises ``ValueError``, ``LookupError`` or
    ``TypeError``.
    """
    if isinstance(recipe, int):
        plan = builder.leaf(inverse[recipe])
        if plan is None:
            raise ValueError(
                f"builder produced no plan for base relation {inverse[recipe]}"
            )
        return plan
    left_recipe, right_recipe, cardinality, cost = recipe
    left = replay_recipe(left_recipe, inverse, graph, builder)
    right = replay_recipe(right_recipe, inverse, graph, builder)
    return Plan(
        nodes=left.nodes | right.nodes,
        left=left,
        right=right,
        operator="join",
        edges=tuple(graph.connecting_edges(left.nodes, right.nodes)),
        cardinality=cardinality,
        cost=cost,
    )
