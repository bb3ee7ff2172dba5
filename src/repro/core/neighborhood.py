"""Neighborhood computation for DPhyp (Section 2.3 of the paper).

The neighborhood ``N(S, X)`` of a connected set ``S`` under an
exclusion set ``X`` is the set of *representative* nodes through which
``S`` may grow.  For a hyperedge ``(u, v)`` with ``u ⊆ S`` the whole
hypernode ``v`` becomes interesting, but only its minimal element
``min(v)`` enters the neighborhood (Eq. 1); the remaining elements of
``v`` are pulled in later by the recursive growth, and the DP-table
lookup filters out intermediate sets that are not connected.

For *generalized* hyperedges ``(u, v, w)`` (Definition 6), the target
hypernode reachable from ``S`` via orientation ``u -> v`` is
``v ∪ (w \\ S)``: flex nodes already inside ``S`` count as being on
``S``'s side, the rest must travel with ``v`` (Section 6).

:class:`NeighborhoodIndex` precomputes three structures:

* ``simple_neighbors[i]`` — bitmap of nodes adjacent to node ``i``
  through simple edges, so the simple part of the neighborhood is a
  union of table lookups,
* an oriented list of complex edges ``(anchor, emit, flex)``, and
* ``anchor_mins`` — the union of ``min(anchor)`` over all oriented
  complex edges.  ``anchor ⊆ S`` implies ``min(anchor) ∈ S``, so a set
  disjoint from ``anchor_mins`` can skip the complex candidate scan
  entirely.

On top of that, ``simple_neighborhood(S)`` is memoized per subgraph
``S`` (the value is independent of the exclusion set ``X``, so one
cached union serves every ``N(S, X)`` query for the same ``S``).  The
enumeration revisits each connected subgraph many times — as a csg, as
a complement seed, and under many exclusion sets — which is what makes
the cache pay off.  ``cache_hits`` / ``cache_misses`` count its
behaviour and are surfaced through
:attr:`repro.core.stats.SearchStats.neighborhood_cache_hits`.

This mirrors what production implementations (e.g. the MySQL hypergraph
optimizer) do and keeps the per-call cost low.
"""

from __future__ import annotations

from . import bitset
from .bitset import NodeSet
from .hypergraph import Hypergraph


class NeighborhoodIndex:
    """Precomputed adjacency structures for fast ``N(S, X)`` queries.

    ``minimize_subsumed`` controls the ``E↓`` minimization step of
    Section 2.3 (dropping candidate hypernodes subsumed by smaller
    ones).  It defaults to on; turning it off is an *ablation* knob —
    the enumeration stays correct (each representative still stands for
    a full hypernode, and the DP-table check filters invalid growth)
    but neighborhoods get larger and more subset probes miss, which is
    what `benchmarks/bench_ablation.py` quantifies.

    ``memoize`` controls the per-subgraph ``simple_neighborhood`` cache.
    It is likewise purely a work-saving device (the cached value is a
    pure function of the graph) and likewise exposed as an ablation
    knob.
    """

    def __init__(
        self,
        graph: Hypergraph,
        minimize_subsumed: bool = True,
        memoize: bool = True,
    ) -> None:
        self.graph = graph
        self.minimize_subsumed = minimize_subsumed
        self.memoize = memoize
        self.n_nodes = graph.n_nodes
        # The graph's lazy edge index already holds the per-node
        # simple-adjacency bitmaps and the complex-edge list; consume
        # them instead of re-scanning the edge list.  (Snapshot
        # semantics: the lists are never mutated after being built.)
        _key, simple_adj, _incident, complex_edges = graph._edge_index()
        oriented: list[tuple[NodeSet, NodeSet, NodeSet]] = []
        for _position, edge in complex_edges:
            oriented.append((edge.left, edge.right, edge.flex))
            oriented.append((edge.right, edge.left, edge.flex))
        #: per-node union of simple-edge neighbors
        self.simple_neighbors: list[NodeSet] = simple_adj
        #: complex edges as (anchor, emit, flex) in both orientations
        self.oriented_complex: list[tuple[NodeSet, NodeSet, NodeSet]] = oriented
        #: True iff any complex edge exists (whether the candidate scan
        #: in :meth:`neighborhood` can ever contribute)
        self.has_complex = bool(oriented)
        #: union of min(anchor) over all oriented complex edges; a set
        #: disjoint from it cannot fully contain any anchor
        self.anchor_mins: NodeSet = 0
        for anchor, _emit, _flex in oriented:
            self.anchor_mins |= anchor & -anchor
        #: memoized simple_neighborhood(S) results (multi-node S only)
        self._simple_cache: dict[NodeSet, NodeSet] = {}
        #: cache statistics, copied into SearchStats by the solvers
        self.cache_hits = 0
        self.cache_misses = 0

    def simple_neighborhood(self, s: NodeSet) -> NodeSet:
        """Union of simple-edge neighbors of all nodes in ``s``.

        Memoized per ``s`` when ``memoize`` is on; empty and singleton
        sets are answered by a direct table lookup and bypass the cache.
        """
        neighbors = self.simple_neighbors
        if not s & (s - 1):  # empty or singleton: one table lookup
            return neighbors[s.bit_length() - 1] if s else 0
        if self.memoize:
            cached = self._simple_cache.get(s)
            if cached is not None:
                self.cache_hits += 1
                return cached
        result = 0
        remaining = s
        while remaining:
            low = remaining & -remaining
            result |= neighbors[low.bit_length() - 1]
            remaining ^= low
        if self.memoize:
            self._simple_cache[s] = result
            self.cache_misses += 1
        return result

    def neighborhood(self, s: NodeSet, x: NodeSet) -> NodeSet:
        """Compute ``N(S, X)`` per Eq. 1 of the paper.

        Returns a bitmap of representative nodes.  Representatives from
        complex edges stand for their full target hypernode; callers
        rely on the DP table to reject sets where the rest of the
        hypernode is missing (Section 3, point 4).
        """
        forbidden = s | x
        result = self.simple_neighborhood(s) & ~forbidden
        if not self.has_complex:
            return result
        if not self.anchor_mins & s:
            # No complex anchor intersects S, so none is contained in
            # it: the candidate scan below cannot contribute.
            return result
        # Collect candidate target hypernodes from complex edges
        # (the set E_downarrow'(S, X) of the paper), then minimize.
        candidates: list[NodeSet] = []
        for anchor, emit, flex in self.oriented_complex:
            if anchor & s != anchor:  # u must lie fully inside S
                continue
            if emit & forbidden:  # v must avoid S and X
                continue
            travelling_flex = flex & ~s
            if travelling_flex & x:  # flex nodes outside S must be free
                continue
            target = emit | travelling_flex
            # A candidate subsumed by a simple neighbor is redundant:
            # the singleton {b} ⊆ target already represents growth.
            if self.minimize_subsumed and target & result:
                continue
            candidates.append(target)
        if not candidates:
            return result
        if self.minimize_subsumed:
            # Minimize: drop any candidate that is a strict superset of
            # another candidate (E_downarrow of the paper); duplicates
            # collapse to a single representative anyway.
            candidates.sort(key=bitset.count)
            kept: list[NodeSet] = []
            for target in candidates:
                if any(small & target == small for small in kept):
                    continue
                kept.append(target)
        else:
            kept = candidates
        for target in kept:
            result |= target & -target  # min(v) as representative
        return result
