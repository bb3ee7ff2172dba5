"""End-to-end integration tests: the paper's worked examples and a
realistic multi-stage scenario."""

import pytest

from repro import Hypergraph, explain, optimize
from repro.core import bitset
from repro.core.kernel import DPhyp
from repro.core.plans import JoinPlanBuilder
from repro.core.stats import SearchStats


class TestFig3TraceProperties:
    """The Fig. 3 trace implies structural properties of the
    enumeration order; we assert them on the actual Fig. 2 run."""

    def _emissions(self, fig2_graph, fig2_cardinalities):
        solver = DPhyp(
            fig2_graph, JoinPlanBuilder(fig2_graph, fig2_cardinalities)
        )
        emitted = []
        traverse = solver.traverse

        def recording_traverse(offer):
            def recording(s1, s2):
                emitted.append((s1, s2))
                offer(s1, s2)

            traverse(recording)

        solver.traverse = recording_traverse
        plan = solver.run()
        return emitted, plan

    def test_min_ordering_invariant(self, fig2_graph, fig2_cardinalities):
        """Every emitted pair satisfies min(S1) < min(S2) — the
        duplicate-avoidance rule of Sec. 2.2."""
        emitted, _ = self._emissions(fig2_graph, fig2_cardinalities)
        for s1, s2 in emitted:
            assert bitset.min_node(s1) < bitset.min_node(s2)

    def test_subsets_before_supersets(self, fig2_graph, fig2_cardinalities):
        """DP-validity: before (S1, S2), every (S1', S2') with
        S1' ⊂ S1, S2' ⊆ S2 (or symmetric) was emitted."""
        emitted, _ = self._emissions(fig2_graph, fig2_cardinalities)
        for i, (s1, s2) in enumerate(emitted):
            union = s1 | s2
            for j in range(i):
                e1, e2 = emitted[j]
                assert (e1 | e2) != union or (e1, e2) != (s1, s2)
            # both sides must already have table entries, i.e. every
            # multi-relation side appeared as a union earlier
            for side in (s1, s2):
                if bitset.count(side) > 1:
                    assert any(
                        (e1 | e2) == side for e1, e2 in emitted[:i]
                    ), f"side {side:b} used before being built"

    def test_bridge_pair_emitted_once(self, fig2_graph, fig2_cardinalities):
        """The hyperedge pair ({R1,R2,R3}, {R4,R5,R6}) — steps 20–23 of
        Fig. 3 — appears exactly once."""
        emitted, _ = self._emissions(fig2_graph, fig2_cardinalities)
        bridge = (bitset.set_of(0, 1, 2), bitset.set_of(3, 4, 5))
        assert emitted.count(bridge) == 1

    def test_nine_emissions_total(self, fig2_graph, fig2_cardinalities):
        emitted, plan = self._emissions(fig2_graph, fig2_cardinalities)
        assert len(emitted) == 9
        assert plan is not None


class TestSnowflakeScenario:
    """A realistic snowflake schema: fact -> dimensions -> sub-dims,
    exercised through the whole public API."""

    def _build(self):
        names = [
            "sales", "date_dim", "customer", "product", "store",
            "city", "brand",
        ]
        cards = [1e7, 2000.0, 50_000.0, 10_000.0, 200.0, 500.0, 100.0]
        graph = Hypergraph(n_nodes=7, node_names=names)
        graph.add_simple_edge(0, 1, selectivity=1 / 2000)
        graph.add_simple_edge(0, 2, selectivity=1 / 50_000)
        graph.add_simple_edge(0, 3, selectivity=1 / 10_000)
        graph.add_simple_edge(0, 4, selectivity=1 / 200)
        graph.add_simple_edge(2, 5, selectivity=1 / 500)   # customer-city
        graph.add_simple_edge(3, 6, selectivity=1 / 100)   # product-brand
        return graph, cards

    def test_all_algorithms_agree(self):
        graph, cards = self._build()
        reference = optimize(graph, cards).cost
        for algorithm in ("dpccp", "dpsize", "dpsub", "topdown"):
            assert optimize(graph, cards, algorithm).cost == pytest.approx(
                reference
            )

    def test_snowflake_never_blows_up_intermediates(self):
        graph, cards = self._build()
        result = optimize(graph, cards)
        # key–foreign-key joins preserve fact cardinality; an optimal
        # C_out plan must never exceed it in any intermediate
        from repro.explain import plan_summary

        summary = plan_summary(result.plan)
        assert summary["max_intermediate_rows"] <= 1e7 + 1
        assert summary["output_rows"] == pytest.approx(1e7)
        assert "sales" in explain(result.plan, graph.node_names)

    def test_greedy_gap_bounded_here(self):
        graph, cards = self._build()
        exact = optimize(graph, cards).cost
        greedy = optimize(graph, cards, "greedy").cost
        assert greedy >= exact - 1e-6

    def test_stats_consistent(self):
        graph, cards = self._build()
        result = optimize(graph, cards)
        # snowflake = star over composite nodes: table entries match
        # the exhaustive count
        from repro.core import exhaustive

        assert result.stats.table_entries == len(
            exhaustive.connected_sets(graph)
        )
        assert result.stats.ccp_emitted == exhaustive.count_csg_cmp_pairs(
            graph
        )


class TestSimplifyThenOptimizePipeline:
    """Simplification -> conflict analysis -> DPhyp, end to end."""

    def test_simplified_query_explores_more_and_stays_correct(self):
        from repro.algebra import (
            Equals,
            JOIN,
            LEFT_OUTER,
            attr,
            leaf,
            node,
            optimize_operator_tree,
            simplify_outer_joins,
        )
        from repro.engine import (
            base_relation,
            evaluate_plan,
            evaluate_tree,
            rows_as_bag,
        )

        r = base_relation("R", ["a"], [(1,), (2,), (3,)])
        s = base_relation("S", ["a"], [(1,), (1,), (2,)])
        t = base_relation("T", ["a"], [(1,), (2,), (9,)])
        tree = node(
            JOIN,
            node(LEFT_OUTER, leaf(r), leaf(s),
                 Equals(attr("R.a"), attr("S.a"), selectivity=0.4)),
            leaf(t),
            Equals(attr("S.a"), attr("T.a"), selectivity=0.4),
        )
        expected = rows_as_bag(evaluate_tree(tree))

        raw = optimize_operator_tree(tree)
        simplified_tree = simplify_outer_joins(tree)
        cooked = optimize_operator_tree(simplified_tree)

        assert cooked.stats.ccp_emitted >= raw.stats.ccp_emitted
        assert cooked.cost <= raw.cost + 1e-9
        for result in (raw, cooked):
            got = rows_as_bag(
                evaluate_plan(result.plan, result.compiled.analysis.relations)
            )
            assert got == expected
