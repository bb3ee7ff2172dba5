"""Two-phase DPhyp: flat-array search, then plan materialization.

**Phase 1 (search)** runs the exact csg-cmp-pair traversal of
:class:`repro.core.dphyp.DPhyp` — same explicit stacks, same push
order, same DP-table-presence connectivity tests — but the DP table is
an interning dict ``NodeSet -> slot`` over parallel flat lists
(``costs``, ``cards``, ``lefts``, ``rights``) instead of a dict of
:class:`~repro.core.plans.Plan` trees.  No Plan, tuple, or candidate
list is constructed per emitted pair: a candidate is priced with a few
float operations (see :mod:`repro.core.kernel.costing`) and the
winning decomposition is recorded as two bitmaps.

**Phase 2 (materialize)** walks the winning slots top-down and
rebuilds the exact Plan tree through the *caller's* builder, so the
result is indistinguishable from a ``dphyp`` plan — same edges tuple,
same cardinality and cost floats, same operator payloads — and every
downstream consumer (explain, cache recipes, serving workers) is
untouched.

Why the costs come out bit-identical to ``dphyp`` (not merely close):

* per-slot cardinality *is* the builder's ``SetCardinalityEstimator``
  (its memo is read inline; a new set calls the estimator itself,
  handing over the set's value-rank bitmap, which each slot carries
  as the OR of its sides');
* candidate costs replicate each shipped model's ``join_cost``
  expression operand-for-operand (generic models are *called*, via
  reused proxies);
* both candidate orders of ``join_unordered`` are offered in the same
  sequence against the same strict ``<`` the DP table uses, so the
  winning decomposition of every slot matches ``dphyp``'s table;
* materialization rebuilds plans bottom-up through
  ``builder.join_ordered``, which recomputes the same floats from the
  same inputs.

All mutable search state — the interning dict, the flat arrays — lives
in locals of a single :meth:`KernelDPhyp.run` call, and the cardinality
memo in the per-query builder; the module keeps no shared state, so
concurrent solves from ``optimize_many`` threads cannot interfere.
"""

from __future__ import annotations

from math import log2
from typing import Optional

from ..hypergraph import Hypergraph
from ..neighborhood import NeighborhoodIndex
from ..plans import JoinPlanBuilder, Plan
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


class KernelDPhyp:
    """One-shot two-phase solver: construct, then call :meth:`run`.

    Requires a :class:`~repro.core.plans.JoinPlanBuilder` (exactly —
    subclasses may override plan construction, which the flat-array
    search bypasses); :func:`repro.core.kernel.solve_dphyp_kernel`
    checks and falls back to ``dphyp`` otherwise.
    """

    def __init__(
        self,
        graph: Hypergraph,
        builder: JoinPlanBuilder,
        stats: Optional[SearchStats] = None,
    ) -> None:
        if type(builder) is not JoinPlanBuilder:
            raise TypeError(
                "KernelDPhyp requires a JoinPlanBuilder; use solve_dphyp "
                "(or solve_dphyp_kernel, which falls back) for other "
                "builders"
            )
        self.graph = graph
        self.builder = builder
        self.stats = stats if stats is not None else SearchStats()
        self.index = NeighborhoodIndex(
            graph, minimize_subsumed=True, memoize=True
        )

    def run(self) -> Optional[Plan]:
        """Search, then materialize the optimal plan (or ``None``)."""
        graph = self.graph
        builder = self.builder
        n = graph.n_nodes

        # -- phase 1 setup: flat arrays + precomputed coefficients ----
        slot_of: "dict[int, int]" = {}   # interned NodeSet -> slot
        costs: "list[float]" = []
        cards: "list[float]" = []
        ranks: "list[int]" = []          # slot set in value-rank space
        lefts: "list[int]" = []          # winning left set (0 = leaf)
        rights: "list[int]" = []
        leaves: "list[Plan]" = []        # node -> leaf plan, for phase 2

        # One memo for both phases: the rebuild's join_ordered calls
        # find every cardinality the search computed.
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

        ccp = 0          # csg-cmp-pairs emitted (folded into stats at end)
        ncalls = 0       # neighborhood computations

        def offer(s1: int, s2: int) -> None:
            """EmitCsgCmp, slot-wise: price both candidate orders and
            keep the winner under the DP table's strict ``<``.

            The cardinality tie-break of ``DPTable.offer`` is vacuous
            here: cardinality is a set function, so every offer for
            one slot carries the same value (non-inner builders, where
            it can differ, never reach the kernel).
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

        # -- phase 1: the DPhyp traversal, flat-array edition ---------
        # Loop structure, stack push order, and connectivity tests are
        # copied from repro.core.dphyp so the emission sequence (and
        # therefore every DP interaction) is order-identical.
        neighborhood_of = self.index.neighborhood
        # Connectivity is tested against a *fixed* S1 many times per
        # EmitCsg call, so instead of Hypergraph.has_connecting_edge
        # per pair, emit_csg folds S1 once into (a) the union of its
        # nodes' simple-adjacency bitmaps — a simple edge connects S1
        # to S2 iff that union intersects S2 — and (b) one required-set
        # mask per complex edge with exactly one side inside S1 (the
        # other side plus the flex nodes not already in S1 must land in
        # S2).  Each candidate then costs one or two bitmap operations.
        _ekey, simple_adj, _incident, complex_edge_list = graph._edge_index()

        rank_bits = estimator.rank_bits
        for node in range(n):
            leaf = builder.leaf(node)  # JoinPlanBuilder: never None
            slot_of[1 << node] = len(costs)
            leaves.append(leaf)
            costs.append(leaf.cost)
            cards.append(leaf.cardinality)
            ranks.append(rank_bits[node])
            lefts.append(0)
            rights.append(0)

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
            for _position, edge in complex_edge_list:
                left_in = edge.left & ~s1 == 0
                right_in = edge.right & ~s1 == 0
                if left_in and not edge.right & s1:
                    required_sets.append(edge.right | (edge.flex & ~s1))
                elif right_in and not edge.left & s1:
                    required_sets.append(edge.left | (edge.flex & ~s1))
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
                        if grown in slot_of and (
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
                    if grown in slot_of:
                        emit_csg(grown)
                    sub = (sub - nbr) & nbr
                expanded = x | nbr
                sub = nbr
                while sub:
                    push((s | sub, expanded))
                    sub = (sub - 1) & nbr

        for node in range(n - 1, -1, -1):
            start = 1 << node
            emit_csg(start)
            enumerate_csg(start, (start << 1) - 1)

        # -- phase 2: materialize the winning decomposition -----------
        def build(s: int) -> Plan:
            slot = slot_of[s]
            left_set = lefts[slot]
            if left_set == 0:
                return leaves[s.bit_length() - 1]
            right_set = rights[slot]
            plan_left = build(left_set)
            plan_right = build(right_set)
            # connecting_edges is symmetric in its arguments, so this
            # is the same tuple dphyp's EmitCsgCmp attached.
            edges = graph.connecting_edges(left_set, right_set)
            return builder.join_ordered(plan_left, plan_right, edges)[0]

        builder_stats = builder.stats
        cost_calls_before = builder_stats.cost_calls
        root = graph.all_nodes
        plan = build(root) if root in slot_of else None
        # Report dphyp's costing arithmetic, not the rebuild's: two
        # candidates priced per emitted pair, however they were priced.
        builder_stats.cost_calls = cost_calls_before + 2 * ccp

        stats = self.stats
        stats.ccp_emitted += ccp
        stats.neighborhood_calls += ncalls
        stats.table_entries = len(slot_of)
        stats.neighborhood_cache_hits += self.index.cache_hits
        stats.neighborhood_cache_misses += self.index.cache_misses
        return plan
