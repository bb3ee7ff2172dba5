"""DPhyp vs. the seed-faithful recursive reference.

The explicit-stack traversal of :class:`repro.core.kernel.DPhyp` must
be observationally identical to :mod:`repro.core.dphyp_recursive`:
same csg-cmp-pairs (count, set, and order), same optimal cost, same
neighborhood-call count — with the flat-array offer (inner joins) and
with the plan offer (compiled operator trees, Section 5) alike.  On
top of the equivalence, the traversal must actually remove the
recursion-depth ceiling, and the memoization layer must be visible
through the stats counters without changing any result.
"""

import sys

import pytest

from repro.algebra.hyperedges import compile_tree
from repro.algebra.optree import normalize_commutative_children
from repro.algebra.reorder import OperatorPlanBuilder
from repro.algebra.tes_filter import TesFilterPlanBuilder, compile_tree_ses
from repro.core.kernel import DPhyp, solve_dphyp
from repro.core.dphyp_recursive import DPhypRecursive, solve_dphyp_recursive
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats
from repro.workloads import chain, cycle, star
from repro.workloads.nonreorderable import (
    cycle_outerjoin_tree,
    star_antijoin_tree,
)
from repro.workloads.random_queries import (
    random_hypergraph_query,
    random_simple_query,
)
from repro.workloads.random_trees import random_operator_tree


def record_emissions(solver):
    """Hook ``solver`` so its run records the exact emission sequence."""
    emitted = []
    if isinstance(solver, DPhyp):
        traverse = solver.traverse

        def recording_traverse(offer):
            def recording(s1, s2):
                emitted.append((s1, s2))
                offer(s1, s2)

            traverse(recording)

        solver.traverse = recording_traverse
    else:
        original = solver.emit_csg_cmp

        def recording(s1, s2, edges=None):
            emitted.append((s1, s2))
            original(s1, s2, edges)

        solver.emit_csg_cmp = recording
    return emitted


def record_run(solver_class, query, **kwargs):
    """Run a solver recording the exact emission sequence."""
    stats = SearchStats()
    builder = JoinPlanBuilder(query.graph, query.cardinalities, stats=stats)
    solver = solver_class(query.graph, builder, stats, **kwargs)
    emitted = record_emissions(solver)
    plan = solver.run()
    return plan, stats, emitted


def record_tree_run(solver_class, tree, mode):
    """Compile an operator tree as the optimizer does, then run a
    solver through the operator plan builder, recording emissions."""
    normalized = normalize_commutative_children(tree)
    stats = SearchStats()
    if mode == "hyperedges":
        compiled = compile_tree(normalized)
        builder = OperatorPlanBuilder(compiled, stats=stats)
    else:
        compiled, requirements = compile_tree_ses(normalized)
        builder = TesFilterPlanBuilder(compiled, requirements, stats=stats)
    solver = solver_class(compiled.graph, builder, stats)
    emitted = record_emissions(solver)
    plan = solver.run()
    return plan, stats, emitted


class TestEquivalenceWithRecursiveReference:
    @pytest.mark.parametrize("seed", range(15))
    def test_random_hypergraphs_emit_identically(self, seed):
        query = random_hypergraph_query(
            7, seed, n_hyperedges=3, max_hypernode=3, n_islands=2,
            flex_probability=0.3,
        )
        plan_i, stats_i, emitted_i = record_run(DPhyp, query)
        plan_r, stats_r, emitted_r = record_run(DPhypRecursive, query)
        # same pairs, same multiplicity, same order — not just same set
        assert emitted_i == emitted_r
        assert stats_i.ccp_emitted == stats_r.ccp_emitted
        assert stats_i.neighborhood_calls == stats_r.neighborhood_calls
        assert stats_i.table_entries == stats_r.table_entries
        assert (plan_i is None) == (plan_r is None)
        if plan_i is not None:
            assert plan_i.cost == pytest.approx(plan_r.cost)
            assert plan_i.join_order() == plan_r.join_order()

    @pytest.mark.parametrize("seed", range(8))
    def test_random_simple_graphs_emit_identically(self, seed):
        query = random_simple_query(7, seed, extra_edge_probability=0.4)
        _, stats_i, emitted_i = record_run(DPhyp, query)
        _, stats_r, emitted_r = record_run(DPhypRecursive, query)
        assert emitted_i == emitted_r
        assert stats_i.ccp_emitted == stats_r.ccp_emitted

    @pytest.mark.parametrize(
        "query",
        [chain(9, seed=1), cycle(8, seed=2), star(6, seed=3)],
        ids=["chain", "cycle", "star"],
    )
    def test_paper_shapes_emit_identically(self, query):
        plan_i, stats_i, emitted_i = record_run(DPhyp, query)
        plan_r, stats_r, emitted_r = record_run(DPhypRecursive, query)
        assert emitted_i == emitted_r
        assert stats_i.ccp_emitted == stats_r.ccp_emitted
        assert plan_i.cost == pytest.approx(plan_r.cost)

    def test_wrappers_agree(self):
        query = cycle(6, seed=4)
        plan_i = solve_dphyp(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        plan_r = solve_dphyp_recursive(
            query.graph, JoinPlanBuilder(query.graph, query.cardinalities)
        )
        assert plan_i.cost == pytest.approx(plan_r.cost)


OPERATOR_TREES = [
    *(
        pytest.param(random_operator_tree(n, seed), id=f"random-{n}-{seed}")
        for n, seed in [(5, 0), (6, 1), (7, 2), (8, 3), (9, 4), (12, 0)]
    ),
    *(
        pytest.param(star_antijoin_tree(k, anti, seed=k), id=f"star-{k}-{anti}")
        for k, anti in [(5, 0), (5, 2), (7, 3), (8, 8)]
    ),
    *(
        pytest.param(
            cycle_outerjoin_tree(n, outer, seed=n), id=f"cycle-{n}-{outer}"
        )
        for n, outer in [(5, 0), (6, 2), (8, 3), (7, 6)]
    ),
]


class TestOperatorTreesEmitIdentically:
    """The plan offer: compiled operator trees in both Section 5 modes."""

    @pytest.mark.parametrize("mode", ["hyperedges", "tes-filter"])
    @pytest.mark.parametrize("tree", OPERATOR_TREES)
    def test_tree_emits_identically(self, tree, mode):
        plan_i, stats_i, emitted_i = record_tree_run(DPhyp, tree, mode)
        plan_r, stats_r, emitted_r = record_tree_run(
            DPhypRecursive, tree, mode
        )
        assert emitted_i == emitted_r
        assert stats_i.ccp_emitted == stats_r.ccp_emitted
        assert stats_i.table_entries == stats_r.table_entries
        assert stats_i.neighborhood_calls == stats_r.neighborhood_calls
        assert stats_i.cost_calls == stats_r.cost_calls
        assert plan_i is not None and plan_r is not None
        assert plan_i.cost == plan_r.cost
        assert plan_i.cardinality == plan_r.cardinality
        assert plan_i.join_order() == plan_r.join_order()


class TestRecursionCeilingRemoved:
    def test_long_chain_under_tight_recursion_limit(self):
        """The seed recursed once per grown subgraph, so a chain of n
        relations needed ~n stack frames; the explicit stack needs a
        constant number regardless of n."""
        query = chain(64, seed=0)
        limit = sys.getrecursionlimit()

        def depth():
            frame = sys._getframe()
            n = 0
            while frame is not None:
                n += 1
                frame = frame.f_back
            return n

        sys.setrecursionlimit(depth() + 50)
        try:
            stats = SearchStats()
            builder = JoinPlanBuilder(
                query.graph, query.cardinalities, stats=stats
            )
            plan = DPhyp(query.graph, builder, stats).run()
        finally:
            sys.setrecursionlimit(limit)
        assert plan is not None
        assert stats.ccp_emitted == (64 ** 3 - 64) // 6

    def test_recursive_reference_hits_the_old_ceiling(self):
        """Sanity check that the ceiling the rewrite removes is real."""
        query = chain(64, seed=0)
        limit = sys.getrecursionlimit()

        def depth():
            frame = sys._getframe()
            n = 0
            while frame is not None:
                n += 1
                frame = frame.f_back
            return n

        sys.setrecursionlimit(depth() + 50)
        try:
            builder = JoinPlanBuilder(query.graph, query.cardinalities)
            with pytest.raises(RecursionError):
                DPhypRecursive(query.graph, builder).run()
        finally:
            sys.setrecursionlimit(limit)


class TestMemoizationKnob:
    def test_cache_counters_populated(self):
        query = star(7, seed=0)
        _, stats, _ = record_run(DPhyp, query)
        assert stats.neighborhood_cache_misses > 0
        assert stats.neighborhood_cache_hits > 0
        as_dict = stats.as_dict()
        assert as_dict["neighborhood_cache_hits"] == (
            stats.neighborhood_cache_hits
        )
        assert as_dict["neighborhood_cache_misses"] == (
            stats.neighborhood_cache_misses
        )

    def test_knob_off_disables_cache_and_changes_nothing(self):
        query = random_hypergraph_query(7, 3, n_hyperedges=3, n_islands=2)
        plan_on, stats_on, emitted_on = record_run(DPhyp, query)
        plan_off, stats_off, emitted_off = record_run(
            DPhyp, query, memoize_neighborhoods=False
        )
        assert stats_off.neighborhood_cache_hits == 0
        assert stats_off.neighborhood_cache_misses == 0
        assert emitted_on == emitted_off
        assert stats_on.ccp_emitted == stats_off.ccp_emitted
        assert plan_on.cost == pytest.approx(plan_off.cost)
