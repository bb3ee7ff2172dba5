"""Cardinality estimation.

For inner joins, the estimate is the textbook independence model: the
product of base cardinalities times the product of the selectivities of
every predicate (hyperedge) fully contained in the relation set.  This
makes the cardinality of a plan class a function of the *set* alone,
independent of join order — the property the cross-algorithm
equivalence tests rely on.

For the non-inner operators of Section 5 the output additionally
depends on the operator semantics; the formulas below are the standard
conservative ones and are shared by the operator plan builder and the
execution-engine sanity tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Optional, Sequence

from ..core.bitset import NodeSet
from ..core.hypergraph import Hypergraph


def inner_join_cardinality(
    left_card: float, right_card: float, selectivity: float
) -> float:
    """``|L| * |R| * sel`` — the independence assumption."""
    return left_card * right_card * selectivity


def operator_cardinality(
    kind: str, left_card: float, right_card: float, selectivity: float
) -> float:
    """Estimated output cardinality of a non-inner binary operator.

    ``kind`` is the lowercase operator tag used throughout
    :mod:`repro.algebra.operators`.  Dependent variants share their
    base operator's estimate (the dependency changes evaluation, not
    output shape).
    """
    inner = left_card * right_card * selectivity
    if kind in ("join", "djoin"):
        result = inner
    elif kind in ("left_outer", "dleft_outer"):
        # every left tuple survives
        result = max(inner, left_card)
    elif kind == "full_outer":
        # matched pairs plus unmatched tuples from both sides
        match_fraction_left = min(1.0, selectivity * right_card)
        match_fraction_right = min(1.0, selectivity * left_card)
        unmatched = left_card * (1.0 - match_fraction_left) + right_card * (
            1.0 - match_fraction_right
        )
        result = max(inner + unmatched, left_card, right_card)
    elif kind in ("semi", "dsemi"):
        # fraction of left tuples with at least one match
        result = left_card * min(1.0, selectivity * right_card)
    elif kind in ("anti", "danti"):
        result = left_card * max(0.0, 1.0 - selectivity * right_card)
    elif kind in ("nest", "dnest"):
        # binary grouping: exactly one output tuple per left tuple
        result = left_card
    else:
        raise ValueError(f"unknown operator kind {kind!r}")
    # Clamp to one row, the standard optimizer convention: it keeps
    # costs strictly positive so plan comparison never degenerates into
    # all-ties when a restrictive antijoin zeroes an estimate.
    return max(result, 1.0)


class SetCardinalityEstimator:
    """Order-invariant cardinality of relation sets for inner joins.

    ``cardinality(S)`` = product of base cardinalities of ``S`` times
    the selectivities of all hyperedges spanned by ``S``.  It is the
    one set-cardinality routine: ``JoinPlanBuilder`` and DPhyp's
    flat-array offer both price through it, so they agree bit for bit.
    Results are memoized in :attr:`memo` (``set -> cardinality``,
    read-only for callers; the flat offer probes it inline before calling
    :meth:`cardinality`).  The estimator is the reference the property
    tests compare incremental plan cardinalities against.

    **Labeling invariance.**  Float products round differently when
    their operands are reordered, so the operand order is fixed by
    *value*, not by position: base cardinalities multiply in ascending
    value order, then selectivities in ascending value order.  Equal
    values are interchangeable in a product, so any relabeling of the
    nodes, reordering of the edge list, or swap of hyperedge sides
    yields bit-identical floats for corresponding sets.  The plan
    cache relies on this: it stores each join's floats in the recipe
    and serves them to every isomorphic requester.

    Both orders are fixed once, at construction.  The edge list
    becomes ``(node mask, selectivity)`` pairs sorted by selectivity,
    so "edge spanned by the set" stays one bitmap test per edge.  Each
    node gets a bit in value-rank space (:attr:`rank_bits`), and a
    product walks only the set's own bits in that space.  Callers that
    cannot carry a set's ranked bitmap get it from per-byte remap
    tables, built on first need.
    """

    def __init__(
        self, graph: Hypergraph, base_cardinalities: Sequence[float]
    ) -> None:
        if len(base_cardinalities) != graph.n_nodes:
            raise ValueError("need one cardinality per node")
        self.graph = graph
        self.base = [float(c) for c in base_cardinalities]
        by_value = sorted(range(graph.n_nodes), key=self.base.__getitem__)
        #: base cardinalities in ascending value order
        self._ranked_base = [self.base[node] for node in by_value]
        #: node -> its bit in value-rank space; a set's *ranked* bitmap
        #: is the OR over its nodes (see :meth:`cardinality`)
        self.rank_bits = [0] * graph.n_nodes
        for rank, node in enumerate(by_value):
            self.rank_bits[node] = 1 << rank
        #: per byte of a node set: byte value -> ranked bitmap; built
        #: on the first call that has to remap a set itself
        self._rank_tables: Optional[list[list[int]]] = None
        self._edges = sorted(
            ((edge.nodes, edge.selectivity) for edge in graph.edges),
            key=itemgetter(1),
        )
        self.memo: dict[NodeSet, float] = {}

    def cardinality(self, s: NodeSet, ranked: Optional[int] = None) -> float:
        """Cardinality of relation set ``s`` (memoized).

        ``ranked`` is ``s`` in value-rank space, for callers that
        already hold it: DPhyp's flat-array offer keeps one per DP slot
        (a union's is the OR of its sides'), so it never remaps.
        """
        if s == 0:
            raise ValueError("cardinality of the empty set is undefined")
        cached = self.memo.get(s)
        if cached is not None:
            return cached
        if ranked is None:
            tables = self._rank_tables
            if tables is None:
                tables = self._rank_tables = self._build_rank_tables()
            ranked = 0
            rest = s
            for table in tables:
                ranked |= table[rest & 0xFF]
                rest >>= 8
        card = 1.0
        base = self._ranked_base
        while ranked:
            low = ranked & -ranked
            card *= base[low.bit_length() - 1]
            ranked ^= low
        outside = ~s
        for mask, selectivity in self._edges:
            if not mask & outside:  # the edge is spanned by s
                card *= selectivity
        # One-row clamp, applied at the *set* level so the estimate
        # remains a pure function of the relation set (order-invariant).
        if card < 1.0:
            card = 1.0
        self.memo[s] = card
        return card

    def _build_rank_tables(self) -> list[list[int]]:
        tables: list[list[int]] = []
        for first in range(0, len(self.rank_bits), 8):
            table = [0]
            for bit in self.rank_bits[first:first + 8]:
                table += [entry | bit for entry in table]
            tables.append(table)
        return tables
