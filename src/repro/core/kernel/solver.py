"""DPhyp — the paper's primary contribution (Sections 3 and 5).

Dynamic-programming join enumeration over (generalized) hypergraphs
that emits *exactly* the csg-cmp-pairs of the query graph, each exactly
once, in an order compatible with dynamic programming (subsets before
supersets).  The paper's member functions map onto :class:`DPhyp`:

``Solve``
    :meth:`DPhyp.run` — seeds the DP table with single-relation plans,
    then processes the nodes in decreasing order, first emitting the
    csg-cmp-pairs whose left side is the singleton, then growing it.

``EnumerateCsgRec`` / ``EmitCsg`` / ``EnumerateCmpRec``
    :meth:`DPhyp.traverse` — grows a connected subgraph ``S1`` by
    non-empty subsets of its neighborhood (a DP-table hit proves
    connectivity), seeds its complements with every neighbor not
    "below" ``min(S1)``, and grows each complement until it is
    connected and connected *to* ``S1``.

``EmitCsgCmp``
    the *offer* :meth:`DPhyp.run` picks once per run and hands to the
    traversal (below).

The two ``Enumerate*Rec`` routines run on explicit ``(set, exclusion)``
stacks instead of recursing once per grown subgraph.  Children are
pushed in decreasing subset order so the LIFO pop visits them in the
exact increasing order of the recursive formulation — every emission
and every DP-table interaction is order-identical to
:mod:`repro.core.dphyp_recursive` (``tests/test_dphyp_iterative.py``
pins this down), without Python's recursion-depth ceiling.

One deviation from the published pseudocode: when ``EmitCsg`` seeds
complements it excludes, for each seed ``v``, the smaller neighbors
``{w ∈ N | w < v}`` from the recursive expansion (``X ∪ B_v(N)``),
exactly as the corrected version in Moerkotte's *Building Query
Compilers* does.  Without it, complements reachable from two different
seeds would be enumerated twice, violating the exactly-once property
the paper proves (and that the property tests enforce against a
brute-force oracle).

Connectivity between ``S1`` and a candidate complement is tested
against masks folded from ``S1`` once per ``EmitCsg`` call, so each
candidate costs one or two bitmap operations; the offer is reached
only for connected pairs.

**Two offers, one traversal.**  The DP table is a dict keyed by
``NodeSet``; a set is present iff some plan for it survived, so the
traversal uses presence as its connectivity test whatever the offer
stores:

* the *flat-array offer* serves exactly :class:`~repro.core.plans.
  JoinPlanBuilder` (the inner-join hot path).  The table interns each
  set to a slot of parallel flat lists (``costs``, ``cards``,
  ``lefts``, ``rights``); no Plan, tuple, or candidate list is built
  per pair — a candidate is priced with a few float operations (see
  :mod:`repro.core.kernel.costing`) and the winning decomposition is
  recorded as two bitmaps.  After the search the winning slots are
  materialized top-down into an ordinary :class:`~repro.core.plans.
  Plan` tree through the builder's ``join_ordered``;
* the *plan offer* serves every other builder (the operator builder of
  Section 5, custom builders): the table maps each set to its best
  :class:`~repro.core.plans.Plan`, filled through
  ``builder.join_unordered`` under :meth:`repro.core.dptable.DPTable.
  offer`'s ``(cost, cardinality)`` rule.

Why the flat offer's costs are bit-identical to the plan offer's (not
merely close):

* per-slot cardinality *is* the builder's ``SetCardinalityEstimator``
  (its memo is read inline; a new set calls the estimator itself,
  handing over the set's value-rank bitmap, which each slot carries
  as the OR of its sides');
* candidate costs replicate each shipped model's ``join_cost``
  expression operand-for-operand (generic models are *called*, via
  reused proxies);
* both candidate orders of ``join_unordered`` are offered in the same
  sequence against the same strict ``<`` the DP table uses;
* materialization rebuilds plans bottom-up through
  ``builder.join_ordered``, which recomputes the same floats from the
  same inputs.

All mutable search state lives in locals of one :meth:`DPhyp.run` call
and in the per-query builder; the module keeps no shared state, so
concurrent solves from ``optimize_many`` threads cannot interfere.
"""

from __future__ import annotations

from math import log2
from typing import Callable, Optional

from ..hypergraph import Hypergraph
from ..neighborhood import NeighborhoodIndex
from ..plans import JoinPlanBuilder, Plan, PlanBuilder
from ..stats import SearchStats
from .costing import (
    KIND_COUT,
    KIND_GENERIC,
    KIND_HASH,
    KIND_NLJ,
    KIND_SMJ,
    SYMMETRIC_KINDS,
    PlanProxy,
    classify_model,
)

#: ``EmitCsgCmp(S1, S2)``: offer the connected pair to the DP table
Offer = Callable[[int, int], None]


class DPhyp:
    """One-shot solver: construct, then call :meth:`run`.

    ``minimize_neighborhoods`` and ``memoize_neighborhoods`` are
    work-saving ablation knobs (never correctness-bearing); see
    :class:`repro.core.neighborhood.NeighborhoodIndex` and
    ``benchmarks/bench_ablation.py``.
    """

    def __init__(
        self,
        graph: Hypergraph,
        builder: PlanBuilder,
        stats: Optional[SearchStats] = None,
        minimize_neighborhoods: bool = True,
        memoize_neighborhoods: bool = True,
    ) -> None:
        self.graph = graph
        self.builder = builder
        self.stats = stats if stats is not None else SearchStats()
        self.index = NeighborhoodIndex(
            graph,
            minimize_subsumed=minimize_neighborhoods,
            memoize=memoize_neighborhoods,
        )
        #: the DP table of the run: ``NodeSet -> slot`` (flat offer) or
        #: ``NodeSet -> Plan`` (plan offer), holding every connected
        #: set that has a plan
        self.table: dict = {}

    def run(self) -> Optional[Plan]:
        """``Solve`` of the paper.

        Returns the optimal plan for all relations, or ``None`` if the
        hypergraph admits no cross-product-free plan (callers can
        pre-process with :meth:`Hypergraph.make_connected`).
        """
        if type(self.builder) is JoinPlanBuilder:
            offer, finish = self._flat_offer()
        else:
            offer, finish = self._plan_offer()
        self.traverse(offer)
        stats = self.stats
        stats.table_entries = len(self.table)
        stats.neighborhood_cache_hits += self.index.cache_hits
        stats.neighborhood_cache_misses += self.index.cache_misses
        return finish()

    def _plan_offer(self) -> "tuple[Offer, Callable[[], Optional[Plan]]]":
        """EmitCsgCmp over a ``NodeSet -> Plan`` table, for any builder.

        The builder receives the optimal plans for both sides plus all
        connecting hyperedges (whose predicates form the conjunction
        ``p`` of the paper) and returns the candidate plans — both
        argument orders for commutative operators, the valid one(s)
        otherwise.  A set enters the table only once a candidate
        survives.
        """
        graph = self.graph
        builder = self.builder
        table: "dict[int, Plan]" = {}
        self.table = table
        for node in range(graph.n_nodes):
            leaf = builder.leaf(node)
            if leaf is not None:
                table[1 << node] = leaf
        connecting_edges = graph.connecting_edges
        join_unordered = builder.join_unordered
        ccp = 0

        def offer(s1: int, s2: int) -> None:
            nonlocal ccp
            ccp += 1
            plan1 = table.get(s1)
            plan2 = table.get(s2)
            if plan1 is None or plan2 is None:
                # A side may be connected yet unplannable when non-inner
                # operator constraints rejected all of its plans.
                return
            edges = connecting_edges(s1, s2)
            for candidate in join_unordered(plan1, plan2, edges):
                # DPTable.offer's rule: lexicographic (cost, cardinality)
                # — non-inner plans of one class can tie on cost yet
                # differ in cardinality.
                nodes = candidate.nodes
                current = table.get(nodes)
                if current is None or (
                    candidate.cost, candidate.cardinality
                ) < (current.cost, current.cardinality):
                    table[nodes] = candidate

        def finish() -> Optional[Plan]:
            self.stats.ccp_emitted += ccp
            return table.get(graph.all_nodes)

        return offer, finish

    def _flat_offer(self) -> "tuple[Offer, Callable[[], Optional[Plan]]]":
        """EmitCsgCmp over flat arrays, for an exact ``JoinPlanBuilder``."""
        graph = self.graph
        builder = self.builder
        slot_of: "dict[int, int]" = {}   # interned NodeSet -> slot
        self.table = slot_of
        costs: "list[float]" = []
        cards: "list[float]" = []
        ranks: "list[int]" = []          # slot set in value-rank space
        lefts: "list[int]" = []          # winning left set (0 = leaf)
        rights: "list[int]" = []
        leaves: "list[Plan]" = []        # node -> leaf plan, for the rebuild

        # One memo for search and rebuild: the rebuild's join_ordered
        # calls find every cardinality the search computed.
        estimator = builder.estimator
        card_cache = estimator.memo
        card_of = estimator.cardinality
        model = builder.cost_model
        kind = classify_model(model)
        symmetric = kind in SYMMETRIC_KINDS
        build_factor = model.build_factor if kind == KIND_HASH else 0.0
        if kind == KIND_GENERIC:
            proxy1, proxy2 = PlanProxy(), PlanProxy()
            join_cost = model.join_cost

        rank_bits = estimator.rank_bits
        for node in range(graph.n_nodes):
            leaf = builder.leaf(node)  # JoinPlanBuilder: never None
            slot_of[1 << node] = len(costs)
            leaves.append(leaf)
            costs.append(leaf.cost)
            cards.append(leaf.cardinality)
            ranks.append(rank_bits[node])
            lefts.append(0)
            rights.append(0)

        ccp = 0

        def offer(s1: int, s2: int) -> None:
            """Price both candidate orders and keep the winner under
            the DP table's strict ``<``.

            The cardinality tie-break of ``DPTable.offer`` is vacuous
            here: cardinality is a set function, so every offer for
            one slot carries the same value.
            """
            nonlocal ccp
            ccp += 1
            u = s1 | s2
            left = slot_of[s1]
            right = slot_of[s2]
            cost_left = costs[left]
            cost_right = costs[right]
            union_card = card_cache.get(u)
            if union_card is None:
                union_card = card_of(u, ranks[left] | ranks[right])
            # Candidate costs replicate the shipped models' join_cost
            # operand order exactly; see the module docstring.
            if kind == KIND_COUT:
                cost1 = cost_left + cost_right + union_card
                cost2 = cost1
            elif kind == KIND_NLJ:
                cost1 = (
                    cost_left + cost_right + cards[left] * cards[right]
                )
                cost2 = cost1
            elif kind == KIND_HASH:
                card_left = cards[left]
                card_right = cards[right]
                cost1 = (
                    cost_left + cost_right
                    + build_factor * card_left + card_right + union_card
                )
                cost2 = (
                    cost_right + cost_left
                    + build_factor * card_right + card_left + union_card
                )
            elif kind == KIND_SMJ:
                card_left = cards[left]
                card_right = cards[right]
                sort_left = (
                    card_left * log2(card_left)
                    if card_left > 1.0 else card_left
                )
                sort_right = (
                    card_right * log2(card_right)
                    if card_right > 1.0 else card_right
                )
                cost1 = (
                    cost_left + cost_right
                    + sort_left + sort_right + union_card
                )
                cost2 = (
                    cost_right + cost_left
                    + sort_right + sort_left + union_card
                )
            else:
                proxy1.nodes, proxy1.cost = s1, cost_left
                proxy1.cardinality = cards[left]
                proxy2.nodes, proxy2.cost = s2, cost_right
                proxy2.cardinality = cards[right]
                cost1 = join_cost("join", proxy1, proxy2, union_card)
                cost2 = join_cost("join", proxy2, proxy1, union_card)
            current = slot_of.get(u)
            if current is None:
                slot_of[u] = len(costs)
                if not symmetric and cost2 < cost1:
                    costs.append(cost2)
                    lefts.append(s2)
                    rights.append(s1)
                else:
                    costs.append(cost1)
                    lefts.append(s1)
                    rights.append(s2)
                cards.append(union_card)
                ranks.append(ranks[left] | ranks[right])
            else:
                best = costs[current]
                if cost1 < best:
                    costs[current] = best = cost1
                    lefts[current] = s1
                    rights[current] = s2
                if not symmetric and cost2 < best:
                    costs[current] = cost2
                    lefts[current] = s2
                    rights[current] = s1

        def build(s: int) -> Plan:
            slot = slot_of[s]
            left_set = lefts[slot]
            if left_set == 0:
                return leaves[s.bit_length() - 1]
            right_set = rights[slot]
            plan_left = build(left_set)
            plan_right = build(right_set)
            # connecting_edges is symmetric in its arguments, so this
            # is the same tuple the plan offer would have attached.
            edges = graph.connecting_edges(left_set, right_set)
            return builder.join_ordered(plan_left, plan_right, edges)[0]

        def finish() -> Optional[Plan]:
            """Materialize the winning decomposition (or ``None``)."""
            builder_stats = builder.stats
            cost_calls_before = builder_stats.cost_calls
            root = graph.all_nodes
            plan = build(root) if root in slot_of else None
            # Report the plan offer's costing arithmetic, not the
            # rebuild's: two candidates priced per emitted pair.
            builder_stats.cost_calls = cost_calls_before + 2 * ccp
            self.stats.ccp_emitted += ccp
            return plan

        return offer, finish

    def traverse(self, offer: Offer) -> None:
        """The csg-cmp-pair traversal, calling ``offer`` once per pair.

        ``EnumerateCsgRec`` and ``EnumerateCmpRec`` run on explicit
        stacks, ``EnumerateCmpRec`` inline in ``EmitCsg``; presence in
        :attr:`table` is the connectivity test for grown sets.
        """
        graph = self.graph
        table = self.table
        neighborhood_of = self.index.neighborhood
        ncalls = 0       # neighborhood computations
        # Connectivity is tested against a *fixed* S1 many times per
        # EmitCsg call, so instead of Hypergraph.has_connecting_edge
        # per pair, emit_csg folds S1 once into (a) the union of its
        # nodes' simple-adjacency bitmaps — a simple edge connects S1
        # to S2 iff that union intersects S2 — and (b) one required-set
        # mask per complex edge with exactly one side inside S1 (the
        # other side plus the flex nodes not already in S1 must land in
        # S2).  Each candidate then costs one or two bitmap operations.
        _ekey, simple_adj, _incident, complex_edge_list = graph._edge_index()
        complex_sides = [
            (edge.left, edge.right, edge.flex)
            for _position, edge in complex_edge_list
        ]

        def emit_csg(s1: int) -> None:
            nonlocal ncalls
            x = s1 | ((s1 & -s1) - 1)
            neighborhood = neighborhood_of(s1, x)
            ncalls += 1
            if not neighborhood:
                return
            # Fold S1 into the per-candidate connectivity masks.
            adjacency = 0
            remaining = s1
            while remaining:
                low = remaining & -remaining
                adjacency |= simple_adj[low.bit_length() - 1]
                remaining ^= low
            required_sets = []
            outside = ~s1
            for left, right, flex in complex_sides:
                # sides are non-empty and disjoint: at most one fits in S1
                if not left & outside:
                    if not right & s1:
                        required_sets.append(right | (flex & outside))
                elif not right & outside and not left & s1:
                    required_sets.append(left | (flex & outside))
            remaining = neighborhood
            while remaining:  # seeds in decreasing node order
                s2 = 1 << (remaining.bit_length() - 1)
                remaining ^= s2
                if adjacency & s2 or (
                    required_sets
                    and any(req & ~s2 == 0 for req in required_sets)
                ):
                    offer(s1, s2)
                # EnumerateCmpRec, inline: grow the complement with
                # smaller neighbors forbidden (exactly-once property).
                stack = [(s2, x | (neighborhood & ((s2 << 1) - 1)))]
                push = stack.append
                pop = stack.pop
                while stack:
                    s, cx = pop()
                    nbr = neighborhood_of(s, cx)
                    ncalls += 1
                    if not nbr:
                        continue
                    sub = nbr & -nbr
                    while sub:
                        grown = s | sub
                        if grown in table and (
                            adjacency & grown
                            or (
                                required_sets
                                and any(
                                    req & ~grown == 0
                                    for req in required_sets
                                )
                            )
                        ):
                            offer(s1, grown)
                        sub = (sub - nbr) & nbr
                    expanded = cx | nbr
                    # Push in decreasing subset order; the LIFO pop
                    # then grows S in the recursion's increasing order.
                    sub = nbr
                    while sub:
                        push((s | sub, expanded))
                        sub = (sub - 1) & nbr

        def enumerate_csg(s1: int, x0: int) -> None:
            nonlocal ncalls
            stack = [(s1, x0)]
            push = stack.append
            pop = stack.pop
            while stack:
                s, x = pop()
                nbr = neighborhood_of(s, x)
                ncalls += 1
                if not nbr:
                    continue
                sub = nbr & -nbr
                while sub:
                    grown = s | sub
                    if grown in table:
                        emit_csg(grown)
                    sub = (sub - nbr) & nbr
                expanded = x | nbr
                sub = nbr
                while sub:
                    push((s | sub, expanded))
                    sub = (sub - 1) & nbr

        for node in range(graph.n_nodes - 1, -1, -1):
            start = 1 << node
            emit_csg(start)
            enumerate_csg(start, (start << 1) - 1)
        self.stats.neighborhood_calls += ncalls


def solve_dphyp(
    graph: Hypergraph,
    builder: PlanBuilder,
    stats: Optional[SearchStats] = None,
) -> Optional[Plan]:
    """Convenience wrapper: run DPhyp and return the final plan."""
    return DPhyp(graph, builder, stats).run()
