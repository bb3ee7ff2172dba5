"""Greedy Operator Ordering (GOO) — a heuristic baseline.

Fegaras's GOO ("A New Heuristic for Optimizing Large Queries", DEXA
1998): repeatedly merge the pair of current fragments whose join result
is smallest until one plan remains.  ``algorithm="auto"`` routes every
query above ``registry.EXACT_MAX_RELATIONS`` relations here.  Works on
hypergraphs because fragment pairs are merged only when some hyperedge
connects them (no cross products).

The search is incremental: each connected fragment pair is costed once,
when the later of its two fragments appears, and its best join waits in
a candidate dict until one of its fragments is merged away.  Base
relations can only be connected by simple edges, so the dict is seeded
from those; after a merge only the pairs ``(survivor, merged)`` are
probed and costed.  That is O(n) costed pairs on chains and cycles and
O(n²) on stars and cliques, where every fragment stays connected to the
growing hub.
"""

from __future__ import annotations

from typing import Optional

from . import bitset
from .hypergraph import Hypergraph
from .plans import Plan, PlanBuilder
from .stats import SearchStats


def solve_greedy(
    graph: Hypergraph,
    builder: PlanBuilder,
    stats: Optional[SearchStats] = None,
) -> Optional[Plan]:
    """Run GOO; returns a (generally sub-optimal) plan or ``None``.

    Each round merges the connected pair whose cheapest join is the
    lexicographic minimum of ``(cardinality, nodes)``, which makes the
    heuristic deterministic (no two pairs share a node set).
    """
    stats = stats if stats is not None else SearchStats()
    if graph.n_nodes == 0:
        # Degenerate zero-relation query: nothing to merge, and the
        # final ``fragments[0]`` would raise IndexError on the empty
        # fragment list.  The DP solvers return None here too (their
        # tables simply never hold the empty "all relations" set).
        return None
    fragments: list[Plan] = []
    for node in range(graph.n_nodes):
        leaf = builder.leaf(node)
        if leaf is None:
            return None
        fragments.append(leaf)

    # (earlier fragment's nodes, later fragment's nodes) -> cheapest
    # join of the pair.  Surviving fragments keep their relative order
    # and a merged fragment goes last, so the earlier fragment is
    # always ``join_unordered``'s first argument.
    pairs: dict[tuple[int, int], Plan] = {}

    def cost_pair(p1: Plan, p2: Plan) -> None:
        edges = graph.connecting_edges(p1.nodes, p2.nodes)
        if not edges:
            return
        stats.pairs_considered += 1
        candidates = builder.join_unordered(p1, p2, edges)
        if candidates:
            stats.ccp_emitted += 1
            pairs[(p1.nodes, p2.nodes)] = min(
                candidates, key=lambda plan: plan.cost
            )

    # Only a simple edge can connect two base relations; its sides are
    # singleton bitmaps, so ordering them orders the leaves.
    simple_pairs = {
        (min(e.left, e.right), max(e.left, e.right))
        for e in graph.edges
        if e.is_simple
    }
    for left, right in sorted(simple_pairs):
        cost_pair(
            fragments[bitset.min_node(left)], fragments[bitset.min_node(right)]
        )

    while len(fragments) > 1:
        if not pairs:
            # No connected pair left: disconnected hypergraph.
            return None
        best = min(
            pairs.values(), key=lambda plan: (plan.cardinality, plan.nodes)
        )
        pairs = {
            key: plan
            for key, plan in pairs.items()
            if not plan.nodes & best.nodes
        }
        fragments = [p for p in fragments if not p.nodes & best.nodes]
        for survivor in fragments:
            cost_pair(survivor, best)
        fragments.append(best)

    stats.table_entries = 1
    return fragments[0]
