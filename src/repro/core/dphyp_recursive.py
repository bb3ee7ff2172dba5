"""Reference recursive DPhyp — the seed implementation, preserved.

:class:`repro.core.kernel.DPhyp` runs the ``Enumerate*Rec`` routines
with an explicit stack; this module keeps the original recursion (one
Python call per grown subgraph, exactly as in the paper's pseudocode)
for two purposes:

* **correctness oracle** — ``tests/test_dphyp_iterative.py`` asserts
  that DPhyp emits the exact same sequence of csg-cmp-pairs as this
  reference on random hypergraphs and compiled operator trees, and
* **performance baseline** — ``benchmarks/bench_regression.py`` and the
  ``ablation-dphyp`` experiment time both implementations so DPhyp's
  win stays measured, not assumed.

To represent the seed faithfully, neighborhood memoization defaults to
*off* here (the seed recomputed ``N(S, X)`` from scratch on every
call), and the connectivity tests scan the full edge list with
:meth:`Hyperedge.connects` exactly as the seed's
``Hypergraph.has_connecting_edge`` did, bypassing the per-node edge
index that the current :class:`~repro.core.hypergraph.Hypergraph`
builds.  Subsumption minimization keeps its seed default of on.  Apart
from that, behaviour is identical — including the deviation from the
published pseudocode documented in :mod:`repro.core.kernel.solver` (excluding
smaller neighbors when seeding complements).

Do not use this in new code paths; it caps tractable query sizes at
Python's recursion limit.
"""

from __future__ import annotations

from typing import Optional

from . import bitset
from .bitset import NodeSet
from .dptable import DPTable
from .hypergraph import Hypergraph
from .neighborhood import NeighborhoodIndex
from .plans import Plan, PlanBuilder
from .stats import SearchStats


class DPhypRecursive:
    """One-shot solver: construct, then call :meth:`run`."""

    def __init__(
        self,
        graph: Hypergraph,
        builder: PlanBuilder,
        stats: Optional[SearchStats] = None,
        minimize_neighborhoods: bool = True,
        memoize_neighborhoods: bool = False,
    ) -> None:
        self.graph = graph
        self.builder = builder
        self.stats = stats if stats is not None else SearchStats()
        self.index = NeighborhoodIndex(
            graph,
            minimize_subsumed=minimize_neighborhoods,
            memoize=memoize_neighborhoods,
        )
        self.table = DPTable()

    # -- seed-faithful connectivity tests --------------------------------

    def _has_connecting_edge(self, s1: NodeSet, s2: NodeSet) -> bool:
        """The seed's full-edge-list scan (pre-index baseline)."""
        return any(edge.connects(s1, s2) for edge in self.graph.edges)

    def _connecting_edges(self, s1: NodeSet, s2: NodeSet) -> list:
        """The seed's full-edge-list filter (pre-index baseline)."""
        return [edge for edge in self.graph.edges if edge.connects(s1, s2)]

    # -- the five member functions ---------------------------------------

    def run(self) -> Optional[Plan]:
        """``Solve`` of the paper."""
        graph = self.graph
        for node in range(graph.n_nodes):
            leaf = self.builder.leaf(node)
            if leaf is not None:
                self.table.set_leaf(bitset.singleton(node), leaf)
        for node in range(graph.n_nodes - 1, -1, -1):
            start = bitset.singleton(node)
            self.emit_csg(start)
            self.enumerate_csg_rec(start, bitset.below(node))
        stats = self.stats
        stats.table_entries = len(self.table)
        stats.neighborhood_cache_hits += self.index.cache_hits
        stats.neighborhood_cache_misses += self.index.cache_misses
        return self.table.get(graph.all_nodes)

    def enumerate_csg_rec(self, s1: NodeSet, x: NodeSet) -> None:
        neighborhood = self.index.neighborhood(s1, x)
        self.stats.neighborhood_calls += 1
        if neighborhood == 0:
            return
        for subset in bitset.subsets(neighborhood):
            grown = s1 | subset
            if grown in self.table:
                self.emit_csg(grown)
        expanded_x = x | neighborhood
        for subset in bitset.subsets(neighborhood):
            self.enumerate_csg_rec(s1 | subset, expanded_x)

    def emit_csg(self, s1: NodeSet) -> None:
        x = s1 | bitset.below(bitset.min_node(s1))
        neighborhood = self.index.neighborhood(s1, x)
        self.stats.neighborhood_calls += 1
        if neighborhood == 0:
            return
        for node in bitset.iter_nodes_descending(neighborhood):
            s2 = bitset.singleton(node)
            # One full-edge-list scan serves both the connectivity test
            # and the edge conjunction EmitCsgCmp needs.
            edges = self._connecting_edges(s1, s2)
            if edges:
                self.emit_csg_cmp(s1, s2, edges)
            # Forbid smaller neighbors during complement expansion so
            # each complement is reached from exactly one seed.
            self.enumerate_cmp_rec(
                s1, s2, x | (neighborhood & bitset.below(node))
            )

    def enumerate_cmp_rec(self, s1: NodeSet, s2: NodeSet, x: NodeSet) -> None:
        neighborhood = self.index.neighborhood(s2, x)
        self.stats.neighborhood_calls += 1
        if neighborhood == 0:
            return
        for subset in bitset.subsets(neighborhood):
            grown = s2 | subset
            if grown in self.table:
                edges = self._connecting_edges(s1, grown)
                if edges:
                    self.emit_csg_cmp(s1, grown, edges)
        expanded_x = x | neighborhood
        for subset in bitset.subsets(neighborhood):
            self.enumerate_cmp_rec(s1, s2 | subset, expanded_x)

    def emit_csg_cmp(
        self,
        s1: NodeSet,
        s2: NodeSet,
        edges: Optional[list] = None,
    ) -> None:
        """Build plans for the csg-cmp-pair ``(S1, S2)``.

        ``edges`` is the caller's connectivity-test scan result, so an
        emitted pair walks the edge list once; ``None`` recomputes.
        """
        self.stats.ccp_emitted += 1
        plan1 = self.table.get(s1)
        plan2 = self.table.get(s2)
        if plan1 is None or plan2 is None:
            # A side may be connected yet unplannable when non-inner
            # operator constraints rejected all of its plans.
            return
        if edges is None:
            edges = self._connecting_edges(s1, s2)
        for candidate in self.builder.join_unordered(plan1, plan2, edges):
            self.table.offer(candidate)


def solve_dphyp_recursive(
    graph: Hypergraph,
    builder: PlanBuilder,
    stats: Optional[SearchStats] = None,
) -> Optional[Plan]:
    """Convenience wrapper: run the recursive reference DPhyp."""
    return DPhypRecursive(graph, builder, stats).run()
