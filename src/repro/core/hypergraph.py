"""Query hypergraphs.

A query is modelled as a hypergraph ``H = (V, E)`` (Definition 1 of the
paper): nodes are relations, hyperedges abstract join predicates.  We
directly implement the *generalized* hypergraph of Definition 6, where
a hyperedge is a triple ``(u, v, w)`` of pairwise-disjoint hypernodes:
``u`` must appear on one side of the join, ``v`` on the other, and the
nodes of ``w`` are free to appear on either side.  A classical
hyperedge is simply a triple with ``w = {}``, and a *simple* edge has
``|u| = |v| = 1`` and ``w = {}``.

Every edge may carry a ``payload`` (predicate, operator, selectivity
...) that the plan-construction layers interpret; the enumeration core
never looks inside it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Optional, Sequence

from . import bitset
from .bitset import NodeSet


class DisconnectedGraphError(ValueError):
    """The query hypergraph is not connected.

    A disconnected graph has no cross-product-free plan, so the
    enumeration algorithms would silently produce ``plan=None``.  The
    :class:`~repro.optimizer.Optimizer` facade raises this instead (or
    auto-applies :meth:`Hypergraph.make_connected` when configured
    with ``on_disconnected="connect"``) so the failure is explicit at
    the call site rather than a later ``ValueError`` on ``.cost``.
    """


@dataclass(frozen=True)
class Hyperedge:
    """A generalized hyperedge ``(u, v, w)`` with an optional payload.

    ``left``/``right``/``flex`` are node-set bitmaps for ``u``, ``v``
    and ``w``.  ``flex`` nodes may end up on either side of the join
    (Definition 6); for ordinary hyperedges it is 0.

    ``selectivity`` is used by the cost layer: the predicate this edge
    stands for filters the cross product of its two sides by this
    factor.  Edges introduced merely to connect components (Sec. 2.1 of
    the paper) use selectivity 1.0.

    ``payload`` is opaque to the enumerator.  The non-inner-join layer
    stores the originating operator here (Sec. 5.4: "we associate with
    each hyperedge the operator from which it was derived").
    """

    left: NodeSet
    right: NodeSet
    flex: NodeSet = 0
    selectivity: float = 1.0
    payload: Any = None

    def __post_init__(self) -> None:
        if self.left == 0 or self.right == 0:
            raise ValueError("hyperedge sides must be non-empty")
        if self.left & self.right:
            raise ValueError("hyperedge sides must be disjoint")
        if self.flex & (self.left | self.right):
            raise ValueError("flex nodes must be disjoint from both sides")
        if not 0.0 <= self.selectivity:
            raise ValueError("selectivity must be non-negative")

    @property
    def nodes(self) -> NodeSet:
        """All nodes this edge touches: ``u | v | w``."""
        return self.left | self.right | self.flex

    @property
    def is_simple(self) -> bool:
        """True iff this is a plain binary edge (Def. 6)."""
        return (
            self.flex == 0
            and bitset.count(self.left) == 1
            and bitset.count(self.right) == 1
        )

    def connects(self, s1: NodeSet, s2: NodeSet) -> bool:
        """True iff this edge connects hypernodes ``s1`` and ``s2``.

        Definition 7: there is an orientation with ``u`` inside one
        side, ``v`` inside the other, and all flex nodes covered by the
        union.
        """
        if self.flex and not bitset.is_subset(self.flex, s1 | s2):
            return False
        return (
            bitset.is_subset(self.left, s1) and bitset.is_subset(self.right, s2)
        ) or (
            bitset.is_subset(self.left, s2) and bitset.is_subset(self.right, s1)
        )

    def spans(self, s: NodeSet) -> bool:
        """True iff every node of the edge lies inside ``s``.

        Used for node-induced subgraphs (Definition 2) and for deciding
        when a predicate/selectivity applies to a plan class.
        """
        return bitset.is_subset(self.nodes, s)

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable form, e.g. ``({R0, R1} -- {R4} / flex {R2})``."""
        text = (
            f"({bitset.format_set(self.left, names)} -- "
            f"{bitset.format_set(self.right, names)}"
        )
        if self.flex:
            text += f" / flex {bitset.format_set(self.flex, names)}"
        return text + ")"


def payload_token(payload: Any) -> Optional[str]:
    """Stable string token identifying a hyperedge payload.

    Used by :func:`repro.cache.keys.structure_bucket`: the enumeration
    core never looks inside payloads, but operator-derived edges
    (Section 5) are *not* interchangeable with plain join edges, so the
    payload's stable rendering participates in structural identity.
    ``None`` stays
    ``None``; strings and the algebra's dataclass payloads
    (``EdgeInfo``, predicates, operators) all render deterministically.
    """
    if payload is None:
        return None
    if isinstance(payload, str):
        return f"str:{payload}"
    return f"{type(payload).__name__}:{payload}"


def simple_edge(
    a: int,
    b: int,
    selectivity: float = 1.0,
    payload: Any = None,
) -> Hyperedge:
    """Build a simple edge between single nodes ``a`` and ``b``."""
    return Hyperedge(
        left=bitset.singleton(a),
        right=bitset.singleton(b),
        selectivity=selectivity,
        payload=payload,
    )


@dataclass
class Hypergraph:
    """A query hypergraph over ``n_nodes`` relations.

    ``node_names`` is optional and used only for rendering.  The node
    ordering required by the paper is the index order ``0 < 1 < ...``.

    The class precomputes, per node, the list of incident edges; the
    neighborhood machinery (:mod:`repro.core.neighborhood`) builds its
    own indexes on top of this.
    """

    n_nodes: int
    edges: list[Hyperedge] = field(default_factory=list)
    node_names: Optional[list[str]] = None

    def __post_init__(self) -> None:
        if self.n_nodes <= 0:
            raise ValueError("hypergraph must have at least one node")
        universe = bitset.full_set(self.n_nodes)
        for edge in self.edges:
            if not bitset.is_subset(edge.nodes, universe):
                raise ValueError(
                    f"edge {edge.render()} references nodes outside the "
                    f"{self.n_nodes}-node universe"
                )
        if self.node_names is not None and len(self.node_names) != self.n_nodes:
            raise ValueError("node_names length must equal n_nodes")
        self._edge_index_cache: Optional[tuple] = None

    # -- construction ---------------------------------------------------

    def add_edge(self, edge: Hyperedge) -> None:
        """Append ``edge`` after validating it fits the node universe."""
        if not bitset.is_subset(edge.nodes, bitset.full_set(self.n_nodes)):
            raise ValueError("edge references nodes outside the universe")
        self.edges.append(edge)
        self._edge_index_cache = None

    def add_simple_edge(
        self, a: int, b: int, selectivity: float = 1.0, payload: Any = None
    ) -> None:
        """Convenience: add a simple edge between nodes ``a`` and ``b``."""
        self.add_edge(simple_edge(a, b, selectivity, payload))

    # -- connectivity index ----------------------------------------------

    def _edge_index(self) -> tuple:
        """Lazily built per-node connecting-edge index.

        Returns ``(key, simple_adj, simple_incident, complex_edges)``:

        * ``simple_adj[i]`` — bitmap of simple-edge neighbors of node
          ``i``, making :meth:`has_connecting_edge` a handful of table
          lookups on the simple-edge fast path;
        * ``simple_incident[i]`` — list of ``(other_side, position,
          edge)`` for the simple edges incident to node ``i``;
        * ``complex_edges`` — the non-simple edges as ``(position,
          edge)``, the only ones that still need a
          :meth:`Hyperedge.connects` scan.

        :meth:`add_edge` invalidates the index explicitly; direct
        appends to (or reassignment of) ``edges`` are caught via the
        identity-and-length key below.  Replacing an element of
        ``edges`` *in place* is not detected — treat edges as
        append-only, or build a new :class:`Hypergraph`.
        """
        key = (id(self.edges), len(self.edges))
        cache = self._edge_index_cache
        if cache is not None and cache[0] == key:
            return cache
        simple_adj: list[NodeSet] = [0] * self.n_nodes
        simple_incident: list[list] = [[] for _ in range(self.n_nodes)]
        complex_edges: list[tuple[int, Hyperedge]] = []
        for position, edge in enumerate(self.edges):
            if edge.is_simple:
                a = bitset.min_node(edge.left)
                b = bitset.min_node(edge.right)
                simple_adj[a] |= edge.right
                simple_adj[b] |= edge.left
                simple_incident[a].append((edge.right, position, edge))
                simple_incident[b].append((edge.left, position, edge))
            else:
                complex_edges.append((position, edge))
        cache = (key, simple_adj, simple_incident, complex_edges)
        self._edge_index_cache = cache
        return cache

    # -- basic queries ---------------------------------------------------

    @property
    def all_nodes(self) -> NodeSet:
        """The full node set ``V`` as a bitmap."""
        return bitset.full_set(self.n_nodes)

    @property
    def is_simple(self) -> bool:
        """True iff every edge is simple (ordinary undirected graph).

        Answered from the lazy edge index, which has already split the
        edges into simple and complex ones.
        """
        return not self._edge_index()[3]

    def edges_within(self, s: NodeSet) -> list[Hyperedge]:
        """Edges of the node-induced subgraph on ``s`` (Definition 2).

        Answered from the lazy per-node edge index rather than a scan
        of ``self.edges``: a simple edge lies inside ``s`` iff, probing
        from either endpoint in ``s``, its other endpoint is also in
        ``s``; only complex edges need the general ``spans`` test.  The
        result preserves ``edges``-list order.
        """
        if s == 0:
            return []
        _key, _adj, simple_incident, complex_edges = self._edge_index()
        found: dict[int, Hyperedge] = {}
        remaining = s
        while remaining:
            low = remaining & -remaining
            for other_side, position, edge in simple_incident[
                low.bit_length() - 1
            ]:
                if other_side & s:
                    found[position] = edge
            remaining ^= low
        for position, edge in complex_edges:
            if edge.spans(s):
                found[position] = edge
        return [edge for _position, edge in sorted(found.items())]

    def connecting_edges(self, s1: NodeSet, s2: NodeSet) -> list[Hyperedge]:
        """All edges that connect disjoint hypernodes ``s1`` and ``s2``.

        Simple edges come from the per-node incident lists of the lazy
        edge index (scanning only the smaller side); complex edges are
        the only ones tested with :meth:`Hyperedge.connects`.  Per
        probe node the adjacency bitmap is consulted first, so nodes
        with no simple neighbor on the other side skip their incident
        list entirely — a *negative* call costs no more than
        :meth:`has_connecting_edge`, which lets the DPhyp emit path use
        this method as its connectivity test (non-empty result) without
        a separate containment scan.  The result preserves
        ``edges``-list order.
        """
        _key, simple_adj, simple_incident, complex_edges = self._edge_index()
        probe, other = (
            (s1, s2) if s1.bit_count() <= s2.bit_count() else (s2, s1)
        )
        # Each edge is found at most once: a simple edge from its one
        # endpoint inside ``probe``, a complex edge by its own test.
        found: list[tuple[int, Hyperedge]] = []
        remaining = probe
        while remaining:
            low = remaining & -remaining
            node = low.bit_length() - 1
            if simple_adj[node] & other:
                for other_side, position, edge in simple_incident[node]:
                    if other_side & other:
                        found.append((position, edge))
            remaining ^= low
        for position, edge in complex_edges:
            if edge.connects(s1, s2):
                found.append((position, edge))
        if len(found) > 1:
            found.sort(key=itemgetter(0))
        return [edge for _position, edge in found]

    def has_connecting_edge(self, s1: NodeSet, s2: NodeSet) -> bool:
        """True iff some edge connects ``s1`` and ``s2`` (Def. 4 test).

        Fast path: a simple edge connects the sets iff some node of one
        side is simple-adjacent to the other side — a few bitmap
        lookups via the lazy edge index.  Only complex edges fall back
        to the per-edge ``connects`` scan.
        """
        _key, simple_adj, _incident, complex_edges = self._edge_index()
        probe, other = (
            (s1, s2) if s1.bit_count() <= s2.bit_count() else (s2, s1)
        )
        remaining = probe
        while remaining:
            low = remaining & -remaining
            if simple_adj[low.bit_length() - 1] & other:
                return True
            remaining ^= low
        for _position, edge in complex_edges:
            if edge.connects(s1, s2):
                return True
        return False

    # -- connectivity ----------------------------------------------------

    def is_connected_set(self, s: NodeSet) -> bool:
        """Reachability test: can ``s`` be grown from ``min(s)`` by edges?

        Grows a region from ``min(s)`` using any edge fully inside
        ``s`` whose one side is already reached, absorbing the other
        side plus flex nodes.

        This is *exact* Definition-3 connectivity for simple graphs and
        whenever each hyperedge side is itself connected in context (as
        in all of the paper's workloads, which start from a connected
        simple graph).  For arbitrary hypergraphs it is an upper bound:
        ``({a}, {b,c})`` alone reaches ``{a,b,c}`` although ``{b,c}``
        has no cross-product-free plan, so Definition 3 says "not
        connected".  The DP algorithms never rely on this method for
        table decisions — they establish connectivity inductively while
        building plans — and the test suite uses the exact recursive
        oracle in :mod:`repro.core.exhaustive`.
        """
        if s == 0:
            return False
        if bitset.count(s) == 1:
            return True
        # Growth is monotone, so its fixpoint does not depend on the
        # order edges are applied in: close over the simple-adjacency
        # bitmaps first, then retry the complex edges inside ``s``.
        _key, simple_adj, _incident, complex_edges = self._edge_index()
        inner = [edge for _position, edge in complex_edges if edge.spans(s)]
        reached = frontier = bitset.min_bit(s)
        while True:
            while frontier:
                low = frontier & -frontier
                frontier ^= low
                new = simple_adj[low.bit_length() - 1] & s & ~reached
                reached |= new
                frontier |= new
            grown = reached
            for edge in inner:
                if bitset.is_subset(edge.left, grown):
                    grown |= edge.right | edge.flex
                elif bitset.is_subset(edge.right, grown):
                    grown |= edge.left | edge.flex
            if grown == reached:
                return reached == s
            frontier = grown & ~reached
            reached = grown

    def connected_components(self) -> list[NodeSet]:
        """Partition ``V`` into connected components.

        A component is grown greedily the same way as
        :meth:`is_connected_set`.  Used to make arbitrary inputs
        connected by adding cross-product edges (Sec. 2.1).
        """
        remaining = self.all_nodes
        components: list[NodeSet] = []
        while remaining:
            seed = bitset.min_bit(remaining)
            component = seed
            changed = True
            while changed:
                changed = False
                for edge in self.edges:
                    if not bitset.is_subset(edge.nodes, remaining):
                        continue
                    if bitset.is_subset(edge.left, component):
                        grown = component | edge.right | edge.flex
                    elif bitset.is_subset(edge.right, component):
                        grown = component | edge.left | edge.flex
                    else:
                        continue
                    if grown != component:
                        component = grown
                        changed = True
            components.append(component)
            remaining &= ~component
        return components

    @property
    def is_connected(self) -> bool:
        """True iff the whole hypergraph is connected."""
        return self.is_connected_set(self.all_nodes)

    def make_connected(self) -> "Hypergraph":
        """Return a connected equivalent of this hypergraph.

        Following Sec. 2.1: for every pair of connected components add a
        hyperedge between them with selectivity 1 (a cross product in
        disguise), producing a hypergraph that describes the same query
        but is connected.  Returns ``self`` when already connected.
        """
        components = self.connected_components()
        if len(components) == 1:
            return self
        extra = [
            Hyperedge(left=a, right=b, selectivity=1.0)
            for i, a in enumerate(components)
            for b in components[i + 1:]
        ]
        return Hypergraph(
            n_nodes=self.n_nodes,
            edges=self.edges + extra,
            node_names=self.node_names,
        )

    # -- canonical identity -----------------------------------------------

    def canonical_form(
        self,
        node_colors=None,
        edge_colors=None,
        budget: Optional[int] = None,
    ):
        """Canonicalize this (optionally annotated) hypergraph.

        Returns a :class:`repro.core.canonical.CanonicalForm` — the
        digest shared by every isomorphic relabeling plus the
        permutation mapping this graph's node indices onto the shared
        canonical labeling.  ``node_colors`` / ``edge_colors`` attach
        annotation tokens (the plan cache passes base cardinalities and
        selectivities) so "isomorphic" means *annotated* isomorphic.
        """
        from .canonical import DEFAULT_BUDGET, canonical_form

        return canonical_form(
            self.n_nodes,
            [(edge.left, edge.right, edge.flex) for edge in self.edges],
            node_colors=node_colors,
            edge_colors=edge_colors,
            budget=DEFAULT_BUDGET if budget is None else budget,
        )

    # -- rendering --------------------------------------------------------

    def name_of(self, node: int) -> str:
        """Name of a node for reports (defaults to ``R<i>``)."""
        if self.node_names is not None:
            return self.node_names[node]
        return f"R{node}"

    def render(self) -> str:
        """Multi-line human-readable dump of the hypergraph."""
        lines = [f"Hypergraph with {self.n_nodes} nodes:"]
        for edge in self.edges:
            lines.append("  " + edge.render(self.node_names))
        return "\n".join(lines)
