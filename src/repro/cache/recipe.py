"""Plan recipes: cache-portable join trees and their replay.

A cached plan cannot be a :class:`~repro.core.plans.Plan` object — the
plan holds the *entry creator's* hyperedges, payloads, and node
bitmaps, which are wrong for an isomorphic requester with different
names or node order.  Instead the cache stores a **recipe**: the join
tree as nested tuples over *canonical* node ranks (leaf = rank,
internal node = ``(left_recipe, right_recipe)``), preserving the
left/right orientation chosen by the original optimization (asymmetric
cost models price build and probe sides differently).

Replay maps each rank back through the requester's inverse canonical
permutation and rebuilds the plan bottom-up through the requester's own
plan builder, re-deriving connecting edges from the requester's graph.
Cost and cardinality therefore come out exact for the requester — a
replayed plan is bit-identical to what a fresh enumeration would have
returned for that join order — in O(plan size) instead of an
exponential enumeration.

Thread-safety: :func:`plan_recipe` and :func:`replay_recipe` are pure
functions over their arguments; concurrent replays against one shared
graph are safe because replay only *reads* the graph (via
``connecting_edges``) and builds fresh :class:`Plan` objects.

Pickle-safety: a recipe is nested tuples of ints — picklable, JSON- and
``repr``-round-trippable — which is exactly why recipes (not
:class:`Plan` objects) are what the persistence layer writes to disk
and what ``optimize_many(executor="process")`` workers send back to
the parent.  Anything that widens :data:`PlanRecipe` beyond plain
literals must keep :mod:`repro.cache.persist` and the process-pool
protocol in sync.
"""

from __future__ import annotations

from typing import Sequence, Union

from ..core import bitset
from ..core.hypergraph import Hypergraph
from ..core.plans import Plan, PlanBuilder

#: leaf = canonical node rank; internal = (left, right)
PlanRecipe = Union[int, tuple]


def plan_recipe(plan: Plan, permutation: Sequence[int]) -> PlanRecipe:
    """Extract the canonical-space join tree of ``plan``.

    ``permutation`` maps the plan's own node indices to canonical
    ranks (from the query's :class:`~repro.core.canonical.CanonicalForm`).
    """
    if plan.is_leaf:
        return permutation[bitset.min_node(plan.nodes)]
    return (
        plan_recipe(plan.left, permutation),
        plan_recipe(plan.right, permutation),
    )


def replay_recipe(
    recipe: PlanRecipe,
    inverse: Sequence[int],
    graph: Hypergraph,
    builder: PlanBuilder,
) -> Plan:
    """Rebuild a plan from a recipe for a (possibly relabeled) query.

    ``inverse`` maps canonical ranks back to the requester's node
    indices.  Each join re-derives its connecting edges from the
    requester's graph, so payloads/selectivities are the requester's
    own; when a builder returns several candidates for one ordered pair
    the cheapest is kept, mirroring what the enumeration would have
    offered to the DP table.
    """
    if isinstance(recipe, int):
        plan = builder.leaf(inverse[recipe])
        if plan is None:
            raise ValueError(
                f"builder produced no plan for base relation {inverse[recipe]}"
            )
        return plan
    left = replay_recipe(recipe[0], inverse, graph, builder)
    right = replay_recipe(recipe[1], inverse, graph, builder)
    edges = graph.connecting_edges(left.nodes, right.nodes)
    candidates = builder.join_ordered(left, right, edges)
    if len(candidates) == 1:  # JoinPlanBuilder: always exactly one
        return candidates[0]
    if not candidates:
        raise ValueError(
            "cached join order is not constructible for this query "
            "(builder returned no candidates)"
        )
    return min(candidates, key=lambda p: (p.cost, p.cardinality))
