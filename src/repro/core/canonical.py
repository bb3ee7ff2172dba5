"""Canonical forms for query hypergraphs.

The plan-cache serving layer needs two notions of query identity:

* an **order-insensitive structural hash** — the same hypergraph built
  with its edges appended in a different order (or with the two sides
  of a hyperedge swapped) must fingerprint identically; and
* a **name-independent canonical form** — two hypergraphs that are
  relabelings of one another (isomorphic, including any node/edge
  annotations such as cardinalities and selectivities) must map to the
  *same* canonical encoding, together with the permutation that maps
  each input's node indices onto the shared canonical labeling.  This
  is what lets isomorphic queries share a single plan-cache entry.

The canonical form is computed with the textbook
individualization-refinement scheme (McKay-style, scaled down):

1. **Color refinement** — nodes start from caller-provided color
   tokens (e.g. cardinalities) and are iteratively split by the
   multiset of colors reachable over their incident hyperedges until
   the partition stabilizes.
2. **Individualization** — when refinement leaves a color class with
   more than one node (a symmetry, e.g. the rotations of a cycle
   query), each member is tentatively individualized, refinement
   re-runs, and the branch whose final encoding is lexicographically
   smallest wins.  Ties between branches produce the *same* encoding
   (they correspond to automorphisms), so the minimum is well defined.

Worst-case individualization is exponential (uniformly annotated
cliques), so the search carries a **budget**; when it is exhausted the
caller gets a deterministic *non*-canonical fallback built from the
input's own index order.  The fallback still dedupes repeats of the
same graph object/layout — only cross-labeling sharing is lost — and
the ``canonical`` flag records which case occurred.

The **digest** is a SHA-256 over bytes: the lengths of the node and
edge token tables, both tables, one byte for the ``canonical`` flag,
then the winning encoding.  An encoding packs the header, the node
token ranks in canonical order and the sorted simple-edge triples as
big-endian int64, followed by the ``repr`` of the sorted complex-edge
parts; the search compares encodings as bytes.  Every cache probe
pays for this, so no ``repr`` of the whole payload is built.

Nothing in this module mutates the graph; it operates on the plain
``(n_nodes, [(left, right, flex)], colors)`` description handed over by
:meth:`repro.core.hypergraph.Hypergraph.canonical_form`.

Thread-safety: canonicalization is a pure function — no module-level
caches, no mutation of inputs — so any number of optimizer threads
(and ``optimize_many`` workers) may canonicalize concurrently, even
the same graph object.

Pickle-safety: :class:`CanonicalForm` is a frozen dataclass of a hex
string, an int tuple, and a bool, so forms pickle cleanly across
process boundaries.  More importantly the *digest is deterministic
across processes, interpreter restarts and byte orders* (SHA-256 over
a canonical encoding with an explicit byte order; no ``hash()``
randomization anywhere), which is what makes plan-cache keys
meaningful in a file written by one process and read by another.
The plan store (:mod:`repro.cache.store`), the JSON interchange
document (:mod:`repro.cache.persist`) load-bear on this guarantee.
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from itertools import chain
from typing import Any, Optional, Sequence

from . import bitset
from .bitset import NodeSet

#: default number of individualization branches explored before the
#: search falls back to the input's index order
DEFAULT_BUDGET = 2048


class _BudgetExceeded(Exception):
    """Internal: individualization search ran out of branches."""


@dataclass(frozen=True)
class CanonicalForm:
    """Result of canonicalizing one (annotated) hypergraph.

    Attributes:
        digest: hex SHA-256 of the canonical encoding.  Equal for two
            inputs iff they are isomorphic as annotated hypergraphs
            (when ``canonical`` is True for both).
        permutation: tuple mapping *original node index -> canonical
            rank*.  Applying it to this input reproduces the shared
            canonical labeling.
        canonical: False when the individualization budget ran out and
            the deterministic index-order fallback was used; such
            digests still match for byte-identical inputs but not
            across relabelings.
    """

    digest: str
    permutation: tuple[int, ...]
    canonical: bool

    @property
    def inverse(self) -> tuple[int, ...]:
        """Canonical rank -> original node index."""
        inverse = [0] * len(self.permutation)
        for node, rank in enumerate(self.permutation):
            inverse[rank] = node
        return tuple(inverse)


def _token_ranks(tokens: Sequence[Any]) -> tuple[list[int], bytes]:
    """Map arbitrary annotation tokens to dense, ordered ranks.

    Tokens only need a deterministic ``repr``; they are ordered by
    ``(type name, repr)`` so mixed types never hit a ``TypeError``
    during sorting, and the sorted table itself becomes part of the
    digest (so the token *values* are fingerprinted, not just their
    ranks).  Returns ``(rank per token, table bytes)``.

    All-``float`` tokens (the cache key's cardinalities and
    selectivities) take a fast path: with one type name, sorting the
    distinct reprs sorts the ``("float", repr)`` keys, so the ranks are
    the general path's, and the table is ``b"f"`` plus the distinct
    reprs joined by a space (a float repr holds no space).  The general
    path's table is ``b"r"`` plus the repr of its sorted key table.
    """
    if set(map(type, tokens)) <= {float}:
        reprs = list(map(repr, tokens))
        distinct = sorted(set(reprs))
        rank_of_repr = {text: rank for rank, text in enumerate(distinct)}
        table = b"f" + " ".join(distinct).encode("ascii")
        return [rank_of_repr[text] for text in reprs], table
    keys = [(type(t).__name__, repr(t)) for t in tokens]
    ordered = sorted(set(keys))
    rank_of = {key: rank for rank, key in enumerate(ordered)}
    table = b"r" + repr(tuple(ordered)).encode("utf-8")
    return [rank_of[key] for key in keys], table


def _refine(
    n: int,
    colors: list[int],
    edges: Sequence[tuple[NodeSet, NodeSet, NodeSet]],
    edge_ranks: Sequence[int],
) -> list[int]:
    """Stable color refinement; returns dense ranks per node.

    ``colors`` must already be dense ranks.  A discrete coloring (n
    distinct ranks, the common case of distinct cardinalities) cannot
    split further and is returned as is: a refinement pass would sort
    the signatures by their leading color and reproduce it exactly.
    """
    n_classes = len(set(colors))
    if n_classes == n:
        return colors
    incidence: list[list[int]] = [[] for _ in range(n)]
    for position, (left, right, flex) in enumerate(edges):
        for v in bitset.iter_nodes(left | right | flex):
            incidence[v].append(position)

    def side_colors(s: NodeSet) -> tuple[int, ...]:
        return tuple(sorted(colors[u] for u in bitset.iter_nodes(s)))

    while True:
        signatures = []
        for v in range(n):
            mask = 1 << v
            parts = []
            for position in incidence[v]:
                left, right, flex = edges[position]
                rank = edge_ranks[position]
                if mask & left:
                    parts.append((
                        rank, 0,
                        side_colors(left), side_colors(right),
                        side_colors(flex),
                    ))
                elif mask & right:
                    parts.append((
                        rank, 0,
                        side_colors(right), side_colors(left),
                        side_colors(flex),
                    ))
                else:
                    parts.append((
                        rank, 1,
                        tuple(sorted((side_colors(left),
                                      side_colors(right)))),
                        side_colors(flex),
                    ))
            signatures.append((colors[v], tuple(sorted(parts))))
        order = {sig: rank for rank, sig in enumerate(sorted(set(signatures)))}
        colors = [order[sig] for sig in signatures]
        new_classes = len(set(colors))
        if new_classes == n_classes:
            return colors
        n_classes = new_classes


def _encode(
    n: int,
    perm: Sequence[int],
    node_ranks: Sequence[int],
    edges: Sequence[tuple[NodeSet, NodeSet, NodeSet]],
    edge_ranks: Sequence[int],
) -> bytes:
    """Encoding of the graph under ``perm`` (original -> rank).

    Order-insensitive over the edge list and over each hyperedge's
    left/right side order; the annotation token ranks ride along so
    annotated isomorphism is what equality means.

    The header ``(n, number of simple edges)``, the node ranks in
    canonical order and the sorted simple-edge triples ``(a, b, edge
    rank)`` are packed as big-endian int64: every value is a
    non-negative int, so comparing the bytes compares the values, and
    the digest does not depend on the machine's byte order.  The
    sorted complex-edge parts follow as their ``repr``.
    """

    def mapped(s: NodeSet) -> tuple[int, ...]:
        return tuple(sorted(perm[u] for u in bitset.iter_nodes(s)))

    inverse = [0] * n
    for node, rank in enumerate(perm):
        inverse[rank] = node
    simple: list[tuple[int, int, int]] = []
    complex_parts: list[tuple] = []
    for position, (left, right, flex) in enumerate(edges):
        if not flex and left & (left - 1) == 0 and right & (right - 1) == 0:
            a = perm[left.bit_length() - 1]
            b = perm[right.bit_length() - 1]
            rank = edge_ranks[position]
            simple.append((a, b, rank) if a < b else (b, a, rank))
        else:
            complex_parts.append((
                tuple(sorted((mapped(left), mapped(right)))),
                mapped(flex),
                edge_ranks[position],
            ))
    simple.sort()
    words = [n, len(simple)]
    words += [node_ranks[node] for node in inverse]
    words += chain.from_iterable(simple)
    encoding = struct.pack(f">{len(words)}q", *words)
    if complex_parts:
        complex_parts.sort()
        encoding += repr(complex_parts).encode("ascii")
    return encoding


def _search(
    n: int,
    colors: list[int],
    edges: Sequence[tuple[NodeSet, NodeSet, NodeSet]],
    edge_ranks: Sequence[int],
    node_ranks: Sequence[int],
    budget: list[int],
) -> tuple[bytes, tuple[int, ...]]:
    """Individualization-refinement: minimal encoding + its permutation."""
    colors = _refine(n, colors, edges, edge_ranks)
    classes: dict[int, list[int]] = {}
    for v, color in enumerate(colors):
        classes.setdefault(color, []).append(v)
    ambiguous = [members for members in classes.values() if len(members) > 1]
    if not ambiguous:
        # discrete partition: the refined colors are the permutation
        perm = tuple(colors)
        return _encode(n, perm, node_ranks, edges, edge_ranks), perm
    target = min(ambiguous, key=lambda members: colors[members[0]])
    best: Optional[tuple[bytes, tuple[int, ...]]] = None
    for v in target:
        budget[0] -= 1
        if budget[0] < 0:
            raise _BudgetExceeded
        child = [(color, 1) for color in colors]
        child[v] = (colors[v], 0)
        order = {pair: rank for rank, pair in enumerate(sorted(set(child)))}
        candidate = _search(
            n, [order[pair] for pair in child],
            edges, edge_ranks, node_ranks, budget,
        )
        if best is None or candidate[0] < best[0]:
            best = candidate
    assert best is not None
    return best


def canonical_form(
    n_nodes: int,
    edges: Sequence[tuple[NodeSet, NodeSet, NodeSet]],
    node_colors: Optional[Sequence[Any]] = None,
    edge_colors: Optional[Sequence[Any]] = None,
    budget: int = DEFAULT_BUDGET,
) -> CanonicalForm:
    """Canonicalize an annotated hypergraph.

    Args:
        n_nodes: number of nodes (indices ``0 .. n_nodes-1``).
        edges: one ``(left, right, flex)`` bitmap triple per hyperedge.
        node_colors: optional annotation token per node (e.g. base
            cardinality); nodes with different tokens are never mapped
            onto each other.
        edge_colors: optional annotation token per edge (e.g.
            selectivity); rides into the encoding the same way.
        budget: individualization branches to explore before falling
            back to the deterministic index-order (non-canonical) form.
    """
    node_tokens = (
        list(node_colors) if node_colors is not None else [0] * n_nodes
    )
    edge_tokens = (
        list(edge_colors) if edge_colors is not None else [0] * len(edges)
    )
    if len(node_tokens) != n_nodes:
        raise ValueError("need one node color per node")
    if len(edge_tokens) != len(edges):
        raise ValueError("need one edge color per edge")

    node_ranks, node_table = _token_ranks(node_tokens)
    edge_ranks, edge_table = _token_ranks(edge_tokens)
    try:
        encoding, perm = _search(
            n_nodes, list(node_ranks), edges, edge_ranks, node_ranks,
            [budget],
        )
        canonical = True
    except _BudgetExceeded:
        perm = tuple(range(n_nodes))
        encoding = _encode(n_nodes, perm, node_ranks, edges, edge_ranks)
        canonical = False

    digest = hashlib.sha256(b"".join((
        struct.pack(">qq", len(node_table), len(edge_table)),
        node_table,
        edge_table,
        b"\x01" if canonical else b"\x00",
        encoding,
    ))).hexdigest()
    return CanonicalForm(
        digest=digest, permutation=tuple(perm), canonical=canonical
    )
