"""Inline cost evaluation for DPhyp's flat-array offer.

The flat-array offer prices a candidate join with a handful of
float operations instead of Plan construction plus cost-model method
dispatch.  :func:`classify_model` maps the builder's cost model onto
an inline-evaluation kind once per solve, so the search loop prices
candidates without a method call for every shipped model.

Set cardinalities need no code of their own here: the offer reads
them from the builder's own :class:`~repro.cost.cardinality.
SetCardinalityEstimator` (one routine and one memo, shared with the
rebuild), which is what makes them bit-identical to the plan offer's.
"""

from __future__ import annotations

from ...cost.models import (
    CoutModel,
    HashJoinModel,
    NestedLoopModel,
    SortMergeModel,
)
from ..bitset import NodeSet

#: inline-evaluation kinds for :func:`classify_model`
KIND_COUT = 0
KIND_NLJ = 1
KIND_HASH = 2
KIND_SMJ = 3
KIND_GENERIC = 4

#: kinds whose two candidate orders provably price identically
#: (their cost expressions commute operand-for-operand in float
#: arithmetic), so the search may skip the second offer entirely.
#: SortMergeModel is *not* symmetric: ``(a+b)+s1+s2`` and
#: ``(b+a)+s2+s1`` round differently in general.
SYMMETRIC_KINDS = frozenset({KIND_COUT, KIND_NLJ})


def classify_model(model) -> int:
    """Map a cost model instance onto an inline-evaluation kind.

    Exact type checks on purpose: a subclass may override
    ``join_cost``, so anything that is not literally one of the
    shipped models takes :data:`KIND_GENERIC`, which calls the model's
    own ``join_cost`` through :class:`PlanProxy` stand-ins and stays
    exact for arbitrary models.
    """
    kind_of = {
        CoutModel: KIND_COUT,
        NestedLoopModel: KIND_NLJ,
        HashJoinModel: KIND_HASH,
        SortMergeModel: KIND_SMJ,
    }
    return kind_of.get(type(model), KIND_GENERIC)


class PlanProxy:
    """Mutable stand-in for a :class:`~repro.core.plans.Plan`.

    The generic costing path reuses two proxies across all candidates
    instead of building throwaway plans.  It carries every attribute a
    cost model may reasonably consult (``cost``, ``cardinality``,
    ``nodes``); models that inspect plan *structure* (children, edges)
    cannot be priced slot-wise: give them a ``JoinPlanBuilder``
    subclass, which DPhyp serves with its plan offer.
    """

    __slots__ = ("nodes", "cardinality", "cost")

    def __init__(self) -> None:
        self.nodes: NodeSet = 0
        self.cardinality = 0.0
        self.cost = 0.0
