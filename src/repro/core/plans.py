"""Plan trees and plan builders.

A :class:`Plan` is an operator tree over base relations: the output of
every join-ordering algorithm and the currency of the DP table.  Plans
are immutable once built and carry their estimated cardinality and
cost, so comparing two plans for the same plan class is a single float
comparison.

The enumeration algorithms never construct plans themselves; they
delegate to a *plan builder*.  Two builders exist:

* :class:`JoinPlanBuilder` (here) — the pure inner-join case of
  Sections 2–4, where every hyperedge is a commutative join predicate;
* ``OperatorPlanBuilder`` (:mod:`repro.algebra.reorder`) — the
  non-inner-join case of Section 5, which recovers the originating
  operator from the connecting hyperedge, respects commutativity
  restrictions, and switches to dependent variants when needed.

Keeping this interface narrow is what lets the paper claim that "no
extension to DPhyp except for calculating the new hyperedges is
necessary to deal with a complete set of non-inner and dependent
joins".
"""

from __future__ import annotations

from functools import cached_property
from typing import TYPE_CHECKING, Any, Iterable, Optional, Sequence

from . import bitset
from .bitset import NodeSet
from .hypergraph import Hyperedge, Hypergraph
from .stats import SearchStats

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cost.cardinality import SetCardinalityEstimator


class Plan:
    """An immutable (sub-)plan: either a base-relation scan or a join.

    Attributes:
        nodes: bitmap of relations covered by this plan.
        left / right: child plans (``None`` for leaves).
        operator: the algebra operator joining the children.  ``None``
            for leaves; the pure-join builder uses the string
            ``"join"``; the operator builder stores an
            :class:`repro.algebra.operators.Operator`.
        edges: the hyperedges whose predicates are applied at this
            node (the conjunction ``p`` of EmitCsgCmp).
        cardinality: estimated output cardinality.
        cost: estimated cost under the builder's cost model.
        free_tables: bitmap of relations referenced but not produced by
            this plan (non-empty only for dependent-join inputs,
            Section 5.6).
    """

    __slots__ = (
        "nodes",
        "left",
        "right",
        "operator",
        "edges",
        "cardinality",
        "cost",
        "free_tables",
    )

    def __init__(
        self,
        nodes: NodeSet,
        left: Optional["Plan"],
        right: Optional["Plan"],
        operator: Any,
        edges: tuple[Hyperedge, ...],
        cardinality: float,
        cost: float,
        free_tables: NodeSet = 0,
    ) -> None:
        self.nodes = nodes
        self.left = left
        self.right = right
        self.operator = operator
        self.edges = edges
        self.cardinality = cardinality
        self.cost = cost
        self.free_tables = free_tables

    @property
    def is_leaf(self) -> bool:
        return self.left is None

    def leaves(self) -> Iterable["Plan"]:
        """Yield leaf plans left-to-right."""
        if self.is_leaf:
            yield self
        else:
            yield from self.left.leaves()
            yield from self.right.leaves()

    def join_order(self) -> Any:
        """Nested-tuple rendering of the join order, e.g. ``((0, 1), 2)``."""
        if self.is_leaf:
            return bitset.min_node(self.nodes)
        return (self.left.join_order(), self.right.join_order())

    def depth(self) -> int:
        """Height of the plan tree (leaf = 0)."""
        if self.is_leaf:
            return 0
        return 1 + max(self.left.depth(), self.right.depth())

    def count_joins(self) -> int:
        """Number of binary operators in the plan."""
        if self.is_leaf:
            return 0
        return 1 + self.left.count_joins() + self.right.count_joins()

    def render(self, names: Optional[Sequence[str]] = None) -> str:
        """Parenthesized plan text, e.g. ``((R0 join R1) join R2)``."""
        if self.is_leaf:
            return bitset.format_set(self.nodes, names)[1:-1]
        op = self.operator if isinstance(self.operator, str) else str(self.operator)
        return f"({self.left.render(names)} {op} {self.right.render(names)})"

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"Plan({self.render()}, card={self.cardinality:.6g}, "
            f"cost={self.cost:.6g})"
        )


class PlanBuilder:
    """Interface the enumeration algorithms build plans through.

    ``join_ordered(p1, p2, edges)`` returns candidate plans with ``p1``
    as the *left* input only; ``join_unordered`` additionally tries the
    commuted application.  DPhyp and DPsub enumerate each unordered
    pair once and use ``join_unordered`` (the "for commutative ops
    only" branch of EmitCsgCmp); DPsize visits both ordered pairs and
    uses ``join_ordered`` so no candidate is costed twice.
    """

    def leaf(self, node: int) -> Optional[Plan]:
        raise NotImplementedError

    def join_ordered(
        self, p1: Plan, p2: Plan, edges: Sequence[Hyperedge]
    ) -> list[Plan]:
        raise NotImplementedError

    def join_unordered(
        self, p1: Plan, p2: Plan, edges: Sequence[Hyperedge]
    ) -> list[Plan]:
        return self.join_ordered(p1, p2, edges) + self.join_ordered(p2, p1, edges)


class JoinPlanBuilder(PlanBuilder):
    """Plan builder for pure inner-join hypergraphs (Sections 2–4).

    Cardinalities multiply base cardinalities with the selectivity of
    every hyperedge that becomes fully contained when two sides are
    combined; this makes the cardinality of a plan class independent of
    the join order, so all algorithms agree on the optimal cost.
    """

    def __init__(
        self,
        graph: Hypergraph,
        cardinalities: Sequence[float],
        cost_model=None,
        stats: Optional[SearchStats] = None,
    ) -> None:
        from ..cost.models import CoutModel  # local import to avoid cycle

        if len(cardinalities) != graph.n_nodes:
            raise ValueError("need one base cardinality per node")
        self.graph = graph
        self.cardinalities = list(cardinalities)
        self.cost_model = cost_model if cost_model is not None else CoutModel()
        self.stats = stats if stats is not None else SearchStats()

    @cached_property
    def estimator(self) -> "SetCardinalityEstimator":
        """The set-cardinality routine, built on first use.

        Cardinality is computed per relation *set* (memoized), not per
        connecting-edge list: an edge can become fully contained in
        S1 | S2 without connecting S1 to S2 (e.g. ({a,b},{c}) when
        S1 = {a,c}), and its selectivity must still be applied exactly
        once for the estimate to be join-order invariant.  A plan-cache
        hit replays stored floats and never touches it, so it is not
        built up front.
        """
        from ..cost.cardinality import SetCardinalityEstimator

        return SetCardinalityEstimator(self.graph, self.cardinalities)

    def leaf(self, node: int) -> Plan:
        card = float(self.cardinalities[node])
        return Plan(
            nodes=bitset.singleton(node),
            left=None,
            right=None,
            operator=None,
            edges=(),
            cardinality=card,
            cost=self.cost_model.leaf_cost(card),
        )

    def join_ordered(
        self, p1: Plan, p2: Plan, edges: Sequence[Hyperedge]
    ) -> list[Plan]:
        card = self.estimator.cardinality(p1.nodes | p2.nodes)
        cost = self.cost_model.join_cost("join", p1, p2, card)
        self.stats.cost_calls += 1
        return [
            Plan(
                nodes=p1.nodes | p2.nodes,
                left=p1,
                right=p2,
                operator="join",
                edges=tuple(edges),
                cardinality=card,
                cost=cost,
            )
        ]


def better_plan(current: Optional[Plan], candidate: Plan) -> Plan:
    """Return the dominating plan for one plan class.

    Lexicographic on ``(cost, cardinality)`` — see
    :meth:`repro.core.dptable.DPTable.offer` for why the cardinality
    tie-break matters for non-inner operators.
    """
    if current is None or (candidate.cost, candidate.cardinality) < (
        current.cost,
        current.cardinality,
    ):
        return candidate
    return current
