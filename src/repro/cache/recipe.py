"""Plan recipes: cache-portable join trees and their replay.

A cached plan cannot be a :class:`~repro.core.plans.Plan` object — the
plan holds the *entry creator's* hyperedges, payloads, and node
bitmaps, which are wrong for an isomorphic requester with different
names or node order.  Instead the cache stores a **recipe**: the join
tree as nested tuples over *canonical* node ranks, preserving the
left/right orientation chosen by the original optimization (asymmetric
cost models price build and probe sides differently):

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

Thread-safety: :func:`plan_recipe` and :func:`replay_recipe` are pure
functions over their arguments; concurrent replays against one shared
graph are safe because replay only *reads* the graph (via
``connecting_edges``) and builds fresh :class:`Plan` objects.

Pickle-safety: a recipe is nested tuples of ints and floats —
picklable, JSON- and ``repr``-round-trippable as long as every float
is finite — which is exactly why recipes (not :class:`Plan` objects)
are what the persistence layer writes to disk and what the process
pool's workers (``optimize_many(executor="process")`` and the serving
daemon's) send back to the parent.
Non-finite floats (``repr(inf)`` is not a literal) are kept out of
persistence by :func:`repro.cache.persist.serialize_entry`.  Anything
that widens :data:`PlanRecipe` beyond plain literals must keep
:mod:`repro.cache.persist` and the process-pool protocol in sync.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..core import bitset
from ..core.hypergraph import Hypergraph
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
