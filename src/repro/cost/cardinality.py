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

from typing import Sequence

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
    one set-cardinality routine: ``JoinPlanBuilder`` and the flat-array
    kernel both price through it, so they agree bit for bit.  Results
    are memoized in :attr:`memo` (``set -> cardinality``, read-only for
    callers; the kernel probes it inline before calling
    :meth:`cardinality`).  The estimator is the reference the property
    tests compare incremental plan cardinalities against.  The edge
    list is read once, at construction, into ``(node mask,
    selectivity)`` pairs, so "edge spanned by the set" is one bitmap
    test per edge.
    """

    def __init__(
        self, graph: Hypergraph, base_cardinalities: Sequence[float]
    ) -> None:
        if len(base_cardinalities) != graph.n_nodes:
            raise ValueError("need one cardinality per node")
        self.graph = graph
        self.base = [float(c) for c in base_cardinalities]
        self._edges = [(edge.nodes, edge.selectivity) for edge in graph.edges]
        self.memo: dict[NodeSet, float] = {}

    def cardinality(self, s: NodeSet) -> float:
        if s == 0:
            raise ValueError("cardinality of the empty set is undefined")
        cached = self.memo.get(s)
        if cached is not None:
            return cached
        # Fixed operand order (nodes ascending, then edges-list order):
        # float products round differently when reordered, and cached
        # plans must replay to the very same cost.
        card = 1.0
        remaining = s
        base = self.base
        while remaining:
            low = remaining & -remaining
            card *= base[low.bit_length() - 1]
            remaining ^= low
        for mask, selectivity in self._edges:
            if mask & s == mask:
                card *= selectivity
        # One-row clamp, applied at the *set* level so the estimate
        # remains a pure function of the relation set (order-invariant).
        card = max(card, 1.0)
        self.memo[s] = card
        return card

    def newly_applied_selectivity(self, s1: NodeSet, s2: NodeSet) -> float:
        """Product of selectivities of edges that span ``s1 | s2`` but
        neither side alone — the factor applied by the joining node."""
        union = s1 | s2
        selectivity = 1.0
        for mask, edge_selectivity in self._edges:
            if (
                mask & union == mask
                and mask & s1 != mask
                and mask & s2 != mask
            ):
                selectivity *= edge_selectivity
        return selectivity
